package tmc

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

var (
	cli = netip.MustParseAddr("10.7.0.2")
	srv = netip.MustParseAddr("198.51.100.9")
)

// trigger builds a client→server packet carrying payload on the given
// service port.
func trigger(port uint16, payload []byte) *packet.Packet {
	p := packet.New(cli, srv, 40000, port)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 2000
	p.TCP.Payload = payload
	return p
}

// mirrored builds the same packet travelling server→client.
func mirrored(port uint16, payload []byte) *packet.Packet {
	p := packet.New(srv, cli, port, 40000)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 2000
	p.TCP.Payload = payload
	return p
}

func TestForgedDNSResponse(t *testing.T) {
	c := New(censor.Default(), nil)
	q := trigger(53, apps.EncodeDNSQuery("www.wikipedia.org"))
	v := c.Process(q, netsim.ToServer, 0)
	if v.Drop {
		t.Error("the TMC is on-path; it cannot drop")
	}
	if len(v.InjectToServer) != 0 {
		t.Error("DNS forgery injected toward the server for a client query")
	}
	if len(v.InjectToClient) != 1 {
		t.Fatalf("injected %d packets toward the client, want the forged response", len(v.InjectToClient))
	}
	resp := v.InjectToClient[0]
	want := apps.AppendDNSResponse(nil, []byte("www.wikipedia.org"), [4]byte{127, 0, 0, 1})
	if !bytes.Equal(resp.TCP.Payload, want) {
		t.Errorf("forged payload = %x, want bogus-address response", resp.TCP.Payload)
	}
	// Stateless numbering: the forgery slots exactly where the client
	// expects the real response, so it shadows it at the reassembler.
	if resp.TCP.Seq != 2000 || resp.TCP.Ack != 1000+uint32(len(q.TCP.Payload)) {
		t.Errorf("forged seq/ack = %d/%d", resp.TCP.Seq, resp.TCP.Ack)
	}
	if c.CensoredCount() != 1 {
		t.Error("counter not incremented")
	}
}

func TestRealDNSResponseDoesNotRetrigger(t *testing.T) {
	c := New(censor.Default(), nil)
	// The real server response carries the forbidden name in its question
	// section; the QR bit must keep the engine from re-triggering on it.
	resp := mirrored(53, apps.AppendDNSResponse(nil, []byte("www.wikipedia.org"), [4]byte{93, 184, 216, 34}))
	if v := c.Process(resp, netsim.ToClient, 0); len(v.InjectToClient) != 0 || len(v.InjectToServer) != 0 {
		t.Error("TMC triggered on a DNS response (QR=1)")
	}
}

func TestHTTPBidirectionalTeardown(t *testing.T) {
	c := New(censor.Default(), nil)
	req := trigger(80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"))
	v := c.Process(req, netsim.ToServer, 0)
	if v.Drop {
		t.Error("the TMC is on-path; it cannot drop")
	}
	if len(v.InjectToClient) != 1 || len(v.InjectToServer) != 1 {
		t.Fatalf("injected %d/%d packets to client/server, want 1/1",
			len(v.InjectToClient), len(v.InjectToServer))
	}
	toCli, toSrv := v.InjectToClient[0], v.InjectToServer[0]
	if toCli.TCP.Flags&packet.FlagRST == 0 || toSrv.TCP.Flags&packet.FlagRST == 0 {
		t.Error("tear-down packets are not RSTs")
	}
	end := 1000 + uint32(len(req.TCP.Payload))
	// Toward the client, impersonating the server.
	if toCli.TCP.Seq != 2000 || toCli.TCP.Ack != end {
		t.Errorf("client-bound RST seq/ack = %d/%d", toCli.TCP.Seq, toCli.TCP.Ack)
	}
	// Toward the server, impersonating the client.
	if toSrv.TCP.Seq != end || toSrv.TCP.Ack != 2000 {
		t.Errorf("server-bound RST seq/ack = %d/%d", toSrv.TCP.Seq, toSrv.TCP.Ack)
	}
}

// TestCrossDirectionMirror is the bidirectional property: the TMC's DPI is
// direction-blind, so processing a trigger travelling server→client must
// produce the exact mirror of the client→server verdict — swapped
// injection lists with byte-identical payloads, and the same note.
func TestCrossDirectionMirror(t *testing.T) {
	cases := []struct {
		name    string
		port    uint16
		payload []byte
	}{
		{"dns", 53, apps.EncodeDNSQuery("www.wikipedia.org")},
		{"http", 80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")},
		{"https", 443, apps.EncodeClientHello("www.wikipedia.org")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fwd := New(censor.Default(), nil).Process(trigger(tc.port, tc.payload), netsim.ToServer, 0)
			rev := New(censor.Default(), nil).Process(mirrored(tc.port, tc.payload), netsim.ToClient, 0)
			if fwd.Note != rev.Note {
				t.Errorf("notes differ: %q vs %q", fwd.Note, rev.Note)
			}
			if len(fwd.InjectToClient) != len(rev.InjectToServer) ||
				len(fwd.InjectToServer) != len(rev.InjectToClient) {
				t.Fatalf("injection counts not mirrored: %d/%d vs %d/%d",
					len(fwd.InjectToClient), len(fwd.InjectToServer),
					len(rev.InjectToClient), len(rev.InjectToServer))
			}
			for i := range fwd.InjectToClient {
				if !bytes.Equal(fwd.InjectToClient[i].TCP.Payload, rev.InjectToServer[i].TCP.Payload) {
					t.Errorf("mirrored payload %d differs", i)
				}
			}
			for i := range fwd.InjectToServer {
				if !bytes.Equal(fwd.InjectToServer[i].TCP.Payload, rev.InjectToClient[i].TCP.Payload) {
					t.Errorf("mirrored payload %d differs", i)
				}
			}
		})
	}
}

func TestResidualCensorship(t *testing.T) {
	c := New(censor.Default(), nil)
	c.Process(trigger(80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")), netsim.ToServer, 0)

	// A new connection's handshake ACK to the tainted server is torn down
	// inside the window...
	ack := packet.New(cli, srv, 40001, 80)
	ack.TCP.Flags = packet.FlagACK
	ack.TCP.Seq = 5000
	ack.TCP.Ack = 6000
	v := c.Process(ack, netsim.ToServer, 30*time.Second)
	if len(v.InjectToClient) != 1 || len(v.InjectToServer) != 1 {
		t.Fatal("residual censorship did not tear down a fresh connection")
	}
	if v.Note != "residual censorship" {
		t.Errorf("note = %q", v.Note)
	}
	// ...benign traffic to another server is untouched...
	other := packet.New(cli, netip.MustParseAddr("198.51.100.10"), 40002, 80)
	other.TCP.Flags = packet.FlagACK
	if v := c.Process(other, netsim.ToServer, 30*time.Second); len(v.InjectToClient) != 0 {
		t.Error("residual censorship leaked to an untainted server")
	}
	// ...and past the window the taint is gone.
	if v := c.Process(ack, netsim.ToServer, 2*ResidualWindow); len(v.InjectToClient) != 0 {
		t.Error("residual window did not expire")
	}
}

func TestSegmentedTriggersPass(t *testing.T) {
	payloads := map[uint16][]byte{
		53:  apps.EncodeDNSQuery("www.wikipedia.org"),
		80:  []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"),
		443: apps.EncodeClientHello("www.wikipedia.org"),
	}
	for port, full := range payloads {
		c := New(censor.Default(), nil)
		for _, cut := range []int{4, 10} {
			seg1 := trigger(port, full[:cut])
			seg2 := trigger(port, full[cut:])
			seg2.TCP.Seq += uint32(cut)
			if v := c.Process(seg1, netsim.ToServer, 0); len(v.InjectToClient)+len(v.InjectToServer) != 0 {
				t.Errorf("port %d cut %d: first segment censored", port, cut)
			}
			if v := c.Process(seg2, netsim.ToServer, 0); len(v.InjectToClient)+len(v.InjectToServer) != 0 {
				t.Errorf("port %d cut %d: second segment censored (no reassembly expected)", port, cut)
			}
		}
	}
}

func TestBenignTrafficPasses(t *testing.T) {
	c := New(censor.Default(), nil)
	cases := []*packet.Packet{
		trigger(53, apps.EncodeDNSQuery("allowed.example")),
		trigger(80, []byte("GET / HTTP/1.1\r\nHost: allowed.example\r\n\r\n")),
		trigger(443, apps.EncodeClientHello("allowed.example")),
		trigger(8080, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")),
	}
	for i, p := range cases {
		if v := c.Process(p, netsim.ToServer, 0); len(v.InjectToClient)+len(v.InjectToServer) != 0 || v.Drop {
			t.Errorf("case %d: benign traffic censored", i)
		}
	}
	if c.CensoredCount() != 0 {
		t.Error("counter incremented on benign traffic")
	}
}

func TestResidualCarrierMaxMerge(t *testing.T) {
	c := New(censor.Default(), nil)
	c.SeedResidual("198.51.100.9:80", 40*time.Second)
	c.SeedResidual("198.51.100.9:80", 20*time.Second) // shorter: must lose
	var got time.Duration
	c.ExportResidual(10*time.Second, func(key string, remaining time.Duration) {
		if key != "198.51.100.9:80" {
			t.Errorf("key = %q", key)
		}
		got = remaining
	})
	if got != 30*time.Second {
		t.Errorf("remaining = %v, want 30s (max-merge, relative to now)", got)
	}
	// Expired windows are not exported.
	n := 0
	c.ExportResidual(time.Hour, func(string, time.Duration) { n++ })
	if n != 0 {
		t.Error("expired window exported")
	}
}

// Keep-alive pipelining: a forbidden request coalesced behind a benign one
// in a single packet used to pass the HTTP engine — it only ever matched
// the Host of the first request in a payload.
func TestPipelinedForbiddenRequestTornDown(t *testing.T) {
	c := New(censor.Default(), nil)
	pipelined := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n" +
		"GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")
	v := c.Process(trigger(80, pipelined), netsim.ToServer, 0)
	if len(v.InjectToClient) == 0 || len(v.InjectToServer) == 0 {
		t.Fatal("pipelined forbidden request did not elicit the two-sided tear-down")
	}
	if v.Note != "bidirectional tear-down" {
		t.Errorf("note %q, want the tear-down's", v.Note)
	}
	if c.Censored != 1 {
		t.Errorf("Censored = %d, want 1", c.Censored)
	}
}

// TestResidualTableBounded opens 1000 residual windows on distinct servers,
// the clock moving past each window before the next opens: the table must
// shrink back to the live windows instead of keeping every expired server
// no client revisits.
func TestResidualTableBounded(t *testing.T) {
	c := New(censor.Default(), nil)
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		p := trigger(80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"))
		p.IP.Dst = netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})
		c.Process(p, netsim.ToServer, time.Duration(i)*2*ResidualWindow)
	}
	if c.Censored != rounds {
		t.Fatalf("censored %d, want %d", c.Censored, rounds)
	}
	if _, n := c.Tracked(); n != 1 {
		t.Errorf("residual table holds %d windows after %d expired ones, want 1 live", n, rounds-1)
	}
}
