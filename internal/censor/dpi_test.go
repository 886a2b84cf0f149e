package censor

import (
	"net/netip"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/packet"
)

var (
	fuzzCli = netip.MustParseAddr("10.1.0.2")
	fuzzSrv = netip.MustParseAddr("198.51.100.9")
)

// fuzzParams are hand-built calibrations covering every action on every
// trigger, one-directional and bidirectional. Their counters are nil, so
// the fuzz also exercises the uncounted paths.
func fuzzParams() []DPIParams {
	var out []DPIParams
	for _, a := range []Action{ActionBlockPage, ActionRedirect, ActionBlackhole, ActionTeardown, ActionForgeDNS} {
		for _, bidir := range []bool{false, true} {
			out = append(out, DPIParams{
				Name: "fuzz", HTTP: a, SNI: a, DNS: a, Bidirectional: bidir,
				BlackholeWindow: time.Minute, Residual: time.Minute,
				BlockBody: "<html>blocked</html>", RedirectLocation: "http://notice.example/",
				ForgedAddr: [4]byte{127, 0, 0, 1},
			})
		}
	}
	return out
}

// FuzzDPIProcess runs every action of the stateless-DPI model over
// arbitrary payloads, ports, flags and directions, twice per censor (the
// second packet lands inside any blackhole or residual window the first
// opened). It must never panic, drop only under a blackhole action, never
// both drop and inject, and never inject without a censorship event.
func FuzzDPIProcess(f *testing.F) {
	f.Add(apps.EncodeDNSQuery("www.wikipedia.org"), uint16(53), uint8(packet.FlagPSH|packet.FlagACK), true)
	f.Add([]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"), uint16(80), uint8(packet.FlagPSH|packet.FlagACK), true)
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a.example\r\n\r\nGET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"), uint16(80), uint8(packet.FlagACK), false)
	f.Add(apps.EncodeClientHello("www.wikipedia.org"), uint16(443), uint8(packet.FlagPSH|packet.FlagACK), false)
	f.Add(apps.EncodeDNSResponse("www.wikipedia.org", [4]byte{93, 184, 216, 34}), uint16(53), uint8(packet.FlagACK), false)
	f.Add(apps.EncodeClientHello("www.wikipedia.org")[:20], uint16(443), uint8(packet.FlagACK), true)
	f.Add([]byte{}, uint16(80), uint8(packet.FlagSYN), true)
	f.Fuzz(func(t *testing.T, payload []byte, port uint16, flags uint8, toServer bool) {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		for _, p := range fuzzParams() {
			d := NewDPI(p, Default())
			for _, now := range []time.Duration{0, 30 * time.Second} {
				pkt, dir := packet.New(fuzzCli, fuzzSrv, 40000, port), netsim.ToServer
				if !toServer {
					pkt, dir = packet.New(fuzzSrv, fuzzCli, port, 40000), netsim.ToClient
				}
				pkt.TCP.Flags = flags
				pkt.TCP.Seq, pkt.TCP.Ack = 1000, 2000
				pkt.TCP.Payload = payload
				before := d.Censored
				v := d.Process(pkt, dir, now)
				injected := len(v.InjectToClient) + len(v.InjectToServer)
				if v.Drop && p.HTTP != ActionBlackhole {
					t.Fatalf("action %d (bidirectional %v) dropped", p.HTTP, p.Bidirectional)
				}
				if v.Drop && injected > 0 {
					t.Fatalf("action %d both dropped and injected", p.HTTP)
				}
				if injected > 0 && d.Censored == before {
					t.Fatalf("action %d injected without a censorship event", p.HTTP)
				}
			}
		}
	})
}

// TestWindowsExpiryAndMerge pins the window table's semantics: live
// through the last instant inclusive, max-merge, and a sweep on Open.
func TestWindowsExpiryAndMerge(t *testing.T) {
	var w Windows[int]
	w.Merge(1, 10*time.Second)
	w.Merge(1, 5*time.Second) // shorter: must lose
	if !w.Live(1, 10*time.Second) {
		t.Error("window not live at its last instant")
	}
	w.Merge(2, time.Second)
	if swept := w.Open(3, 2*time.Second, 20*time.Second); swept != 1 || w.Len() != 2 {
		t.Errorf("Open swept %d and left %d windows, want 1 and 2", swept, w.Len())
	}
	if w.Live(1, 10*time.Second+1) || w.Len() != 1 {
		t.Errorf("expired window still live or not deleted (%d held)", w.Len())
	}
}
