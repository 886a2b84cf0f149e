package kazakh

import (
	"reflect"
	"testing"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// FuzzKazakhProcess runs the Kazakh MITM over two connections on port 80.
// Each opens with a client SYN; the server answers with a fuzzed segment
// (a SYN+ACK, or the probes and payload runs of Strategies 9 and 10), the
// client completes the handshake, sends a fuzzed segment, the server sends
// its segment again and the client repeats its own. The censor must never
// panic and never inject without a censorship event or a probe response,
// and two fresh instances must return identical verdicts.
func FuzzKazakhProcess(f *testing.F) {
	f.Add([]byte(forbidden), []byte{}, uint8(pa), uint8(sa))
	f.Add([]byte("GET /index HTTP/1.1\r\n"), []byte("Host: blocked.example\r\n\r\n"), uint8(pa), uint8(pa))
	f.Add([]byte(forbidden), []byte(forbidden), uint8(pa), uint8(sa))
	f.Add([]byte(forbidden), []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"), uint8(pa), uint8(sy))
	f.Add([]byte(forbidden), []byte{}, uint8(0), uint8(packet.FlagRST))
	f.Fuzz(func(t *testing.T, cliLoad, srvLoad []byte, cliFlags, srvFlags uint8) {
		run := func() []netsim.Verdict {
			k := New(censor.Default(), nil)
			var out []netsim.Verdict
			for conn := uint16(0); conn < 2; conn++ {
				pkts := []*packet.Packet{
					cliPkt(sy, ""),
					srvPkt(srvFlags, string(srvLoad)),
					cliPkt(ak, ""),
					cliPkt(cliFlags, string(cliLoad)),
					srvPkt(srvFlags, string(srvLoad)),
					cliPkt(cliFlags, string(cliLoad)),
				}
				for i, p := range pkts {
					dir := netsim.ToServer
					if p.IP.Src == srv {
						dir = netsim.ToClient
						p.TCP.DstPort += conn
					} else {
						p.TCP.SrcPort += conn
					}
					before := k.Censored + k.ProbeResponses
					v := k.Process(p, dir, time.Duration(conn)*time.Minute+time.Duration(i)*time.Millisecond)
					if len(v.InjectToClient)+len(v.InjectToServer) > 0 && k.Censored+k.ProbeResponses == before {
						t.Fatalf("conn %d packet %d: injected without a censorship event", conn, i)
					}
					out = append(out, kept(v))
				}
			}
			return out
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("two instances disagree:\n%+v\n%+v", a, b)
		}
	})
}
