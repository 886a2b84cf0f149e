package india

import (
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// FuzzIndiaProcess: every ISP sibling runs its stateless DPI over arbitrary
// client payloads on arbitrary ports. None may panic, and the on-path
// siblings (everything but Jio's blackhole) may never drop.
func FuzzIndiaProcess(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"), uint16(80))
	f.Add(apps.EncodeClientHello("www.wikipedia.org"), uint16(443))
	// Tricky corpus found while developing: a request line with no Host, a
	// Host header with no request line (mid-stream segment), a truncated
	// ClientHello, and a ClientHello on the HTTP port.
	f.Add([]byte("GET /falun HTTP/1.1\r\n\r\n"), uint16(80))
	f.Add([]byte("ost: blocked.example\r\n\r\n"), uint16(80))
	f.Add(apps.EncodeClientHello("www.wikipedia.org")[:20], uint16(443))
	f.Add(apps.EncodeClientHello("blocked.example"), uint16(80))
	f.Add([]byte{}, uint16(443))
	f.Fuzz(func(t *testing.T, payload []byte, port uint16) {
		for _, params := range ISPs() {
			in := New(params, censor.Default(), nil)
			p := packet.New(cli, srv, 40000, port)
			p.TCP.Flags = packet.FlagPSH | packet.FlagACK
			p.TCP.Seq = 1000
			p.TCP.Ack = 2000
			p.TCP.Payload = payload
			v := in.Process(p, netsim.ToServer, 0)
			if v.Drop && params.HTTP != censor.ActionBlackhole && params.SNI != censor.ActionBlackhole {
				t.Fatalf("%s dropped but has no blackhole action", params.Name)
			}
			if v.Drop && (len(v.InjectToClient) != 0 || len(v.InjectToServer) != 0) {
				t.Fatalf("%s both dropped and injected", params.Name)
			}
			// Server-direction traffic is always a no-op for this family.
			rev := packet.New(srv, cli, port, 40000)
			rev.TCP.Payload = payload
			if rv := in.Process(rev, netsim.ToClient, time.Second); rv.Drop || len(rv.InjectToClient) != 0 {
				t.Fatalf("%s acted on server-to-client traffic", params.Name)
			}
		}
	})
}
