package censor_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"geneva/internal/censor"
	"geneva/internal/censor/gfw"
	"geneva/internal/censor/india"
	"geneva/internal/censor/kazakh"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// TestHTTPHostMatchAnchoring pins the two HTTP matchers the censors keep.
// A request line and its Host header arrive in separate segments. The GFW
// HTTP box matches a Host line on its own, so even without reassembly it
// censors the second segment. The stateless DPI family (India) and the
// Kazakh MITM only recognize a Host header behind a request line in the
// same packet (§6), so the split request passes both.
func TestHTTPHostMatchAnchoring(t *testing.T) {
	cli := netip.MustParseAddr("10.1.0.2")
	srv := netip.MustParseAddr("198.51.100.9")
	const line, host = "GET /index HTTP/1.1\r\n", "Host: blocked.example\r\n\r\n"
	mk := func(fromClient bool, flags uint8, seq, ack uint32, payload string) *packet.Packet {
		p := packet.New(cli, srv, 40000, 80)
		if !fromClient {
			p = packet.New(srv, cli, 80, 40000)
		}
		p.TCP.Flags = flags
		p.TCP.Seq, p.TCP.Ack = seq, ack
		p.TCP.Payload = []byte(payload)
		return p
	}
	pa := packet.FlagPSH | packet.FlagACK
	flow := []*packet.Packet{
		mk(true, packet.FlagSYN, 100, 0, ""),
		mk(false, packet.FlagSYN|packet.FlagACK, 500, 101, ""),
		mk(true, packet.FlagACK, 101, 501, ""),
		mk(true, pa, 101, 501, line),
		mk(true, pa, 101+uint32(len(line)), 501, host),
	}
	run := func(m netsim.Middlebox) {
		for _, p := range flow {
			dir := netsim.ToServer
			if p.IP.Src == srv {
				dir = netsim.ToClient
			}
			m.Process(p, dir, 0)
		}
	}

	box := gfw.NewBox(gfw.Params{Protocol: "http", PNoReassembly: 1}, censor.Default(), rand.New(rand.NewSource(1)))
	g := &gfw.GFW{Boxes: []*gfw.Box{box}}
	run(g)
	if g.CensoredCount() != 1 {
		t.Errorf("GFW HTTP box without reassembly: censored %d, want 1 (a lone Host line matches)", g.CensoredCount())
	}
	for _, p := range india.ISPs() {
		d := india.New(p, censor.Default(), nil)
		run(d)
		if d.CensoredCount() != 0 {
			t.Errorf("%s: censored a Host header with no request line in its packet", p.Name)
		}
	}
	k := kazakh.New(censor.Default(), nil)
	run(k)
	if k.CensoredCount() != 0 {
		t.Errorf("Kazakhstan: censored a Host header with no request line in its packet")
	}
}
