package india

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

var (
	cli = netip.MustParseAddr("10.1.0.2")
	srv = netip.MustParseAddr("198.51.100.9")
)

func forbiddenReq(port uint16) *packet.Packet {
	p := packet.New(cli, srv, 40000, port)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 2000
	p.TCP.Payload = []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\nAccept: */*\r\n\r\n")
	return p
}

func forbiddenHello(port uint16) *packet.Packet {
	p := packet.New(cli, srv, 40000, port)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 2000
	p.TCP.Payload = apps.EncodeClientHello("www.wikipedia.org")
	return p
}

// --- Airtel: byte-identical to the original single-ISP model ---

func TestAirtelInjectsBlockPageAndRst(t *testing.T) {
	a := NewAirtel(censor.Default(), nil)
	v := a.Process(forbiddenReq(80), netsim.ToServer, 0)
	if v.Drop {
		t.Error("Airtel is on-path; it cannot drop")
	}
	if len(v.InjectToClient) != 2 {
		t.Fatalf("injected %d packets, want block page + RST", len(v.InjectToClient))
	}
	page := v.InjectToClient[0]
	if page.TCP.Flags != packet.FlagFIN|packet.FlagPSH|packet.FlagACK {
		t.Errorf("block page flags = %s, want FPA", packet.FlagsString(page.TCP.Flags))
	}
	if !strings.Contains(string(page.TCP.Payload), "blocked") {
		t.Error("block page has no body")
	}
	// Stateless numbering: derived from the offending packet.
	if page.TCP.Seq != 2000 || page.TCP.Ack != 1000+uint32(len(forbiddenReq(80).TCP.Payload)) {
		t.Errorf("block page seq/ack = %d/%d", page.TCP.Seq, page.TCP.Ack)
	}
	if v.InjectToClient[1].TCP.Flags&packet.FlagRST == 0 {
		t.Error("no follow-up RST")
	}
	if a.CensoredCount() != 1 {
		t.Error("counter not incremented")
	}
}

func TestAirtelOnlyDefaultPort(t *testing.T) {
	a := NewAirtel(censor.Default(), nil)
	if v := a.Process(forbiddenReq(8080), netsim.ToServer, 0); len(v.InjectToClient) != 0 {
		t.Error("censored on a non-default port")
	}
}

func TestAirtelStatelessNoHandshakeNeeded(t *testing.T) {
	a := NewAirtel(censor.Default(), nil)
	// First packet ever seen is the forbidden request.
	if v := a.Process(forbiddenReq(80), netsim.ToServer, 0); len(v.InjectToClient) == 0 {
		t.Error("stateless censor required a handshake")
	}
}

func TestAirtelIgnoresSNI(t *testing.T) {
	a := NewAirtel(censor.Default(), nil)
	if v := a.Process(forbiddenHello(443), netsim.ToServer, 0); len(v.InjectToClient) != 0 || v.Drop {
		t.Error("Airtel censored HTTPS; it filters HTTP only")
	}
}

func TestSegmentedRequestPassesEverySibling(t *testing.T) {
	for _, p := range ISPs() {
		a := New(p, censor.Default(), nil)
		full := forbiddenReq(80).TCP.Payload
		if p.SNI != censor.ActionNone {
			full = forbiddenHello(443).TCP.Payload
		}
		port := uint16(80)
		if p.SNI != censor.ActionNone {
			port = 443
		}
		for _, cut := range []int{5, 10, 20} {
			seg1 := forbiddenReq(port)
			seg1.TCP.Payload = full[:cut]
			seg2 := forbiddenReq(port)
			seg2.TCP.Payload = full[cut:]
			seg2.TCP.Seq += uint32(cut)
			if v := a.Process(seg1, netsim.ToServer, 0); len(v.InjectToClient) != 0 || v.Drop {
				t.Errorf("%s cut %d: first segment censored", p.Name, cut)
			}
			if v := a.Process(seg2, netsim.ToServer, 0); len(v.InjectToClient) != 0 || v.Drop {
				t.Errorf("%s cut %d: second segment censored (no reassembly expected)", p.Name, cut)
			}
		}
	}
}

func TestServerDirectionIgnoredEverySibling(t *testing.T) {
	for _, params := range ISPs() {
		a := New(params, censor.Default(), nil)
		p := forbiddenReq(80)
		p.IP.Src, p.IP.Dst = srv, cli
		p.TCP.SrcPort, p.TCP.DstPort = 80, 40000
		if v := a.Process(p, netsim.ToClient, 0); len(v.InjectToClient) != 0 || v.Drop {
			t.Errorf("%s: censored server-to-client traffic", params.Name)
		}
	}
}

func TestBenignHostPasses(t *testing.T) {
	a := NewAirtel(censor.Default(), nil)
	p := forbiddenReq(80)
	p.TCP.Payload = []byte("GET / HTTP/1.1\r\nHost: allowed.example\r\n\r\n")
	if v := a.Process(p, netsim.ToServer, 0); len(v.InjectToClient) != 0 {
		t.Error("censored a benign host")
	}
}

// --- Jio: SNI-triggered blackholing ---

func TestJioBlackholesForbiddenSNI(t *testing.T) {
	j := New(Jio(), censor.Default(), nil)
	hello := forbiddenHello(443)
	v := j.Process(hello, netsim.ToServer, 0)
	if !v.Drop {
		t.Fatal("Jio did not drop the forbidden ClientHello")
	}
	if len(v.InjectToClient) != 0 || len(v.InjectToServer) != 0 {
		t.Error("Jio injected packets; it blackholes silently")
	}
	if j.CensoredCount() != 1 {
		t.Error("counter not incremented")
	}
	// Everything else the flow sends inside the window is dropped too —
	// even benign traffic.
	later := forbiddenHello(443)
	later.TCP.Payload = []byte("benign")
	later.TCP.Seq = 5000
	if v := j.Process(later, netsim.ToServer, 30*time.Second); !v.Drop {
		t.Error("follow-up packet inside the window not dropped")
	}
	// Past the window, the flow recovers.
	if v := j.Process(later, netsim.ToServer, 2*time.Minute); v.Drop {
		t.Error("packet after the window still dropped")
	}
}

func TestJioIgnoresHTTP(t *testing.T) {
	j := New(Jio(), censor.Default(), nil)
	if v := j.Process(forbiddenReq(80), netsim.ToServer, 0); v.Drop || len(v.InjectToClient) != 0 {
		t.Error("Jio censored plain HTTP; it filters SNI only")
	}
}

func TestJioOnlyDefaultPort(t *testing.T) {
	j := New(Jio(), censor.Default(), nil)
	if v := j.Process(forbiddenHello(8443), netsim.ToServer, 0); v.Drop {
		t.Error("censored on a non-default port")
	}
}

// --- Vodafone: injected 302 redirect ---

func TestVodafoneInjects302(t *testing.T) {
	vf := New(Vodafone(), censor.Default(), nil)
	v := vf.Process(forbiddenReq(80), netsim.ToServer, 0)
	if v.Drop {
		t.Error("Vodafone is on-path; it cannot drop")
	}
	if len(v.InjectToClient) != 1 {
		t.Fatalf("injected %d packets, want exactly the 302", len(v.InjectToClient))
	}
	inj := v.InjectToClient[0]
	if !strings.HasPrefix(string(inj.TCP.Payload), "HTTP/1.1 302 Found\r\nLocation: ") {
		t.Errorf("injected payload is not a 302: %q", inj.TCP.Payload)
	}
	if !strings.Contains(string(inj.TCP.Payload), "vodafone.in") {
		t.Error("302 does not point at the ISP notice page")
	}
	if inj.TCP.Seq != 2000 {
		t.Errorf("302 seq = %d, want the stateless 2000", inj.TCP.Seq)
	}
	if vf.CensoredCount() != 1 {
		t.Error("counter not incremented")
	}
}

func TestVodafoneIgnoresSNI(t *testing.T) {
	vf := New(Vodafone(), censor.Default(), nil)
	if v := vf.Process(forbiddenHello(443), netsim.ToServer, 0); v.Drop || len(v.InjectToClient) != 0 {
		t.Error("Vodafone censored HTTPS; it filters HTTP only")
	}
}

// Keep-alive pipelining: a forbidden request coalesced behind a benign one
// in a single packet used to pass every HTTP-filtering sibling — the DPI
// only ever looked at the first request of a payload.
func TestPipelinedForbiddenRequestCensored(t *testing.T) {
	const pipelined = "GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n" +
		"GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"
	for _, params := range ISPs() {
		if params.HTTP == censor.ActionNone {
			continue // Jio filters SNI only
		}
		a := New(params, censor.Default(), nil)
		p := forbiddenReq(80)
		p.TCP.Payload = []byte(pipelined)
		v := a.Process(p, netsim.ToServer, 0)
		if len(v.InjectToClient) == 0 {
			t.Errorf("%s: pipelined forbidden request not censored", params.Name)
		}
		want := map[censor.Action]string{
			censor.ActionBlockPage: "block page injected",
			censor.ActionRedirect:  "302 injected",
		}[params.HTTP]
		if v.Note != want {
			t.Errorf("%s: note %q, want the action's %q", params.Name, v.Note, want)
		}
	}
}

// TestJioBlackholeTableBounded blackholes 1000 distinct flows, the clock
// moving past each window before the next opens: the table must shrink
// back to the live blackholes instead of keeping every expired flow.
func TestJioBlackholeTableBounded(t *testing.T) {
	j := New(Jio(), censor.Default(), nil)
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		p := forbiddenHello(443)
		p.TCP.SrcPort = uint16(20000 + i)
		if v := j.Process(p, netsim.ToServer, time.Duration(i)*2*time.Minute); !v.Drop {
			t.Fatalf("flow %d not blackholed", i)
		}
	}
	if n, _ := j.Tracked(); n != 1 {
		t.Errorf("blackhole table holds %d windows after %d expired ones, want 1 live", n, rounds-1)
	}
}
