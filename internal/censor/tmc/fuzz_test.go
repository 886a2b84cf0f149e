package tmc

import (
	"testing"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// FuzzTMCProcess: the TMC's three DPI engines run over arbitrary payloads
// in both directions. The censor must never panic, never drop (it is
// on-path), and only ever inject after recording a censorship event.
func FuzzTMCProcess(f *testing.F) {
	f.Add(apps.EncodeDNSQuery("www.wikipedia.org"), uint16(53), true)
	f.Add([]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"), uint16(80), true)
	f.Add(apps.EncodeClientHello("www.wikipedia.org"), uint16(443), false)
	// Tricky corpus found while developing: a response re-carrying the
	// forbidden question (QR must gate it), a length prefix longer than
	// the segment, a header-only query, and a query on the wrong port.
	f.Add(apps.AppendDNSResponse(nil, []byte("www.wikipedia.org"), [4]byte{93, 184, 216, 34}), uint16(53), false)
	f.Add([]byte{0xff, 0xff, 0, 0, 0, 0}, uint16(53), true)
	f.Add(apps.EncodeDNSQuery("www.wikipedia.org")[:14], uint16(53), true)
	f.Add(apps.EncodeDNSQuery("www.wikipedia.org"), uint16(5353), true)
	f.Add([]byte{}, uint16(443), true)
	f.Fuzz(func(t *testing.T, payload []byte, port uint16, toServer bool) {
		c := New(censor.Default(), nil)
		var p *packet.Packet
		dir := netsim.ToClient
		if toServer {
			dir = netsim.ToServer
			p = packet.New(cli, srv, 40000, port)
		} else {
			p = packet.New(srv, cli, port, 40000)
		}
		p.TCP.Flags = packet.FlagPSH | packet.FlagACK
		p.TCP.Seq = 1000
		p.TCP.Ack = 2000
		p.TCP.Payload = payload
		v := c.Process(p, dir, 0)
		if v.Drop {
			t.Fatal("the TMC dropped; it is on-path")
		}
		if len(v.InjectToClient)+len(v.InjectToServer) > 0 && c.CensoredCount() == 0 {
			t.Fatal("injected without recording a censorship event")
		}
	})
}
