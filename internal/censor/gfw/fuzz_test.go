package gfw

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// FuzzGFWProcess runs the calibrated five-box GFW over two connections to
// one server. Each completes a handshake, then the client sends a fuzzed
// segment, the server answers with one, and the client sends its segment
// again. The GFW must never panic, never drop (it is on-path), and never
// inject without a censorship event, and two fresh GFWs on the same seed
// must return identical verdicts.
func FuzzGFWProcess(f *testing.F) {
	pa := uint8(packet.FlagPSH | packet.FlagACK)
	f.Add([]byte(forbiddenGET), []byte{}, pa, uint8(packet.FlagACK), int64(1))
	f.Add([]byte("GET /index HTTP/1.1\r\n"), []byte("Host: blocked.example\r\n\r\n"), pa, pa, int64(2))
	f.Add(apps.EncodeClientHello("www.wikipedia.org"), []byte("HTTP/1.1 200 OK\r\n\r\n"), pa, pa, int64(3))
	f.Add(apps.EncodeDNSQuery("www.wikipedia.org"), []byte{}, pa, uint8(packet.FlagRST), int64(4))
	f.Add([]byte("RETR ultrasurf\r\n"), []byte{}, uint8(packet.FlagFIN|packet.FlagACK), uint8(packet.FlagSYN|packet.FlagACK), int64(5))
	f.Add([]byte("RCPT TO:<xiazai@upup.info>"), []byte{}, pa, uint8(0), int64(6))
	f.Fuzz(func(t *testing.T, cliLoad, srvLoad []byte, cliFlags, srvFlags uint8, seed int64) {
		run := func() []netsim.Verdict {
			g := New(censor.Default(), rand.New(rand.NewSource(seed)))
			var out []netsim.Verdict
			for conn := uint16(0); conn < 2; conn++ {
				pkts := append(handshake(100, 500),
					mk(true, cliFlags, 101, 501, string(cliLoad)),
					mk(false, srvFlags, 501, 101+uint32(len(cliLoad)), string(srvLoad)),
					mk(true, cliFlags, 101+uint32(len(cliLoad)), 501+uint32(len(srvLoad)), string(cliLoad)))
				for i, p := range pkts {
					dir := netsim.ToServer
					if p.IP.Src == srv {
						dir = netsim.ToClient
						p.TCP.DstPort += conn
					} else {
						p.TCP.SrcPort += conn
					}
					before := g.CensoredCount()
					v := g.Process(p, dir, time.Duration(conn)*time.Second+time.Duration(i)*time.Millisecond)
					if v.Drop {
						t.Fatalf("conn %d packet %d: the on-path GFW dropped", conn, i)
					}
					if len(v.InjectToClient)+len(v.InjectToServer) > 0 && g.CensoredCount() == before {
						t.Fatalf("conn %d packet %d: injected without a censorship event", conn, i)
					}
					out = append(out, kept(v))
				}
			}
			return out
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("two GFWs on seed %d disagree:\n%+v\n%+v", seed, a, b)
		}
	})
}
