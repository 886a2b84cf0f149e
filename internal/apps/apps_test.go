package apps

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/tcpstack"
)

var (
	clientAddr = netip.MustParseAddr("10.1.0.2")
	serverAddr = netip.MustParseAddr("198.51.100.9")
)

// runSession runs one clean (censor-free) connection of the session and
// returns the client script.
func runSession(t *testing.T, s *Session) *Script {
	t.Helper()
	client := tcpstack.NewEndpoint(clientAddr, tcpstack.DefaultClient, rand.New(rand.NewSource(1)))
	server := tcpstack.NewEndpoint(serverAddr, tcpstack.DefaultServer, rand.New(rand.NewSource(2)))
	server.NewServerApp = s.ServerFactory()
	server.Listen(s.Port)
	n := netsim.New(client, server)
	client.Attach(n)
	server.Attach(n)
	app := s.NewClient()
	client.Connect(serverAddr, s.Port, app)
	n.Run(0)
	return app
}

func TestAllSessionsSucceedWithoutCensor(t *testing.T) {
	sessions := map[string]*Session{
		"dns":   DNSSession("www.wikipedia.org"),
		"ftp":   FTPSession("ultrasurf"),
		"http":  HTTPQuerySession("ultrasurf"),
		"https": HTTPSSession("www.wikipedia.org"),
		"smtp":  SMTPSession("tibetalk@yahoo.com.cn"),
	}
	for name, s := range sessions {
		app := runSession(t, s)
		if !app.Succeeded() {
			t.Errorf("%s: clean run failed (corrupted=%v reset=%v served=%d)",
				name, app.Corrupted(), app.Reset(), app.Served())
		}
		if !app.Established() {
			t.Errorf("%s: never established", name)
		}
	}
}

func TestScriptDetectsCorruption(t *testing.T) {
	s := &Script{Expect: []byte("hello world")}
	s.OnData(nil, []byte("hello"))
	if s.Corrupted() || s.Succeeded() {
		t.Fatal("prefix should be fine and incomplete")
	}
	s.OnData(nil, []byte(" worlX"))
	if !s.Corrupted() {
		t.Fatal("divergent byte not detected")
	}
}

func TestScriptDetectsOverrun(t *testing.T) {
	s := &Script{Expect: []byte("ok")}
	s.OnData(nil, []byte("ok, and then a block page"))
	if !s.Corrupted() {
		t.Fatal("extra data beyond transcript not detected")
	}
}

func TestScriptCompleteExactly(t *testing.T) {
	s := &Script{Expect: []byte("response")}
	s.OnData(nil, []byte("resp"))
	s.OnData(nil, []byte("onse"))
	if !s.Succeeded() || s.Served() != 1 {
		t.Fatal("split delivery should complete")
	}
}

// TestScriptCorruptionIsSticky checks that a divergent chunk poisons the
// run for good: later chunks are compared at their own offsets, so one that
// happens to match the transcript there must not revive the script or
// advance a keep-alive script's progress.
func TestScriptCorruptionIsSticky(t *testing.T) {
	s := &Script{Expect: []byte("hello world")}
	s.OnData(nil, []byte("hellX"))
	s.OnData(nil, []byte(" world")) // matches Expect[5:11]
	if s.Succeeded() || !s.Corrupted() {
		t.Fatalf("after a divergent chunk: succeeded=%v corrupted=%v, want false/true", s.Succeeded(), s.Corrupted())
	}

	ka := HTTPQuerySession("kittens").KeepAlive(3, time.Second).NewClient()
	size := ka.ExchangeSize
	ka.OnData(nil, ka.Expect[:size])
	ka.OnData(nil, bytes.Repeat([]byte{'X'}, size))
	ka.OnData(nil, ka.Expect[2*size:]) // the third exchange, at its own offset
	if ka.Succeeded() || !ka.Corrupted() {
		t.Fatalf("keep-alive after a divergent chunk: succeeded=%v corrupted=%v, want false/true", ka.Succeeded(), ka.Corrupted())
	}
	if ka.Served() != 1 {
		t.Fatalf("Served = %d after corruption and a matching chunk, want frozen at 1", ka.Served())
	}
}

func TestDNSEncodingRoundtrip(t *testing.T) {
	q := EncodeDNSQuery("www.wikipedia.org")
	name, ok := packet.ParseDNSQueryName(nil, q)
	if !ok || string(name) != "www.wikipedia.org" {
		t.Errorf("DNSQueryName = %q, %v", name, ok)
	}
	// Length prefix must match.
	if int(q[0])<<8|int(q[1]) != len(q)-2 {
		t.Errorf("length prefix %d, message %d", int(q[0])<<8|int(q[1]), len(q)-2)
	}
}

func TestDNSQueryNameFailsOpenOnFragments(t *testing.T) {
	q := EncodeDNSQuery("www.wikipedia.org")
	// A censor without reassembly sees fragments: the parser must fail
	// open (no name) until the QNAME is fully present, and never panic.
	nameEnd := 2 + 12 + len("www.wikipedia.org") + 2 // prefix + header + labels + root
	for cut := 1; cut < len(q)-1; cut++ {
		name, ok := packet.ParseDNSQueryName(nil, q[:cut])
		if ok && cut < nameEnd {
			t.Errorf("name %q parsed from %d-byte fragment (QNAME ends at %d)", name, cut, nameEnd)
		}
		if cut >= nameEnd && (!ok || string(name) != "www.wikipedia.org") {
			t.Errorf("complete QNAME at %d bytes not parsed", cut)
		}
	}
	if _, ok := packet.ParseDNSQueryName(nil, nil); ok {
		t.Error("parsed empty data")
	}
	if _, ok := packet.ParseDNSQueryName(nil, []byte{0, 3, 1, 2, 3}); ok {
		t.Error("parsed garbage")
	}
}

func TestDNSResponseParses(t *testing.T) {
	r := AppendDNSResponse(nil, []byte("example.com"), [4]byte{1, 2, 3, 4})
	if len(r) < 14 {
		t.Fatal("response too short")
	}
	if r[2+2]&0x80 == 0 { // QR bit in flags high byte (after 2-byte prefix, 2-byte ID)
		t.Error("QR bit not set in response")
	}
}

func TestExtractSNI(t *testing.T) {
	hello := EncodeClientHello("youtube.com")
	sni, ok := packet.ParseTLSServerName(hello)
	if !ok || string(sni) != "youtube.com" {
		t.Errorf("ExtractSNI = %q, %v", sni, ok)
	}
}

func TestExtractSNIFailsOpenOnTruncation(t *testing.T) {
	hello := EncodeClientHello("youtube.com")
	for cut := 1; cut < len(hello); cut++ {
		if sni, ok := packet.ParseTLSServerName(hello[:cut]); ok {
			t.Fatalf("SNI %q extracted from %d/%d-byte fragment", sni, cut, len(hello))
		}
	}
	if _, ok := packet.ParseTLSServerName([]byte{0x17, 0x03, 0x03, 0, 1, 0}); ok {
		t.Error("extracted SNI from application-data record")
	}
}

func TestExtractSNIProperty(t *testing.T) {
	f := func(b []byte) bool {
		// Must never panic and never claim success on random bytes that
		// don't start like a handshake record.
		sni, ok := packet.ParseTLSServerName(b)
		if ok && len(b) > 0 && b[0] != 0x16 {
			return false
		}
		_ = sni
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHTTPParsers(t *testing.T) {
	req := []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n")
	target, ok := packet.ParseHTTPRequestTarget(req)
	if !ok || string(target) != "/?q=ultrasurf" {
		t.Errorf("target = %q, %v", target, ok)
	}
	host, ok := packet.ParseHTTPHostHeader(req)
	if !ok || string(host) != "example.com" {
		t.Errorf("host = %q, %v", host, ok)
	}
	// Split requests must fail open.
	if _, ok := packet.ParseHTTPRequestTarget(req[:9]); ok {
		t.Error("parsed target from fragment")
	}
	if _, ok := packet.ParseHTTPHostHeader([]byte("Host: exam")); ok {
		t.Error("parsed unterminated host")
	}
	if _, ok := packet.ParseHTTPRequestTarget([]byte("BREW /pot HTCPCP/1.0\r\n\r\n")); ok {
		t.Error("parsed non-HTTP method")
	}
}

func TestFTPAndSMTPParsers(t *testing.T) {
	if f, ok := FTPRetrTarget([]byte("RETR ultrasurf\r\n")); !ok || string(f) != "ultrasurf" {
		t.Errorf("FTPRetrTarget = %q, %v", f, ok)
	}
	if _, ok := FTPRetrTarget([]byte("RETR ultra")); ok {
		t.Error("parsed unterminated RETR")
	}
	if r, ok := SMTPRcptTarget([]byte("RCPT TO:<tibetalk@yahoo.com.cn>\r\n")); !ok || string(r) != "tibetalk@yahoo.com.cn" {
		t.Errorf("SMTPRcptTarget = %q, %v", r, ok)
	}
	if _, ok := SMTPRcptTarget([]byte("MAIL FROM:<a@b>\r\n")); ok {
		t.Error("parsed RCPT from MAIL FROM")
	}
}

func TestSessionClientScriptsAreFresh(t *testing.T) {
	s := HTTPQuerySession("ultrasurf")
	a, b := s.NewClient(), s.NewClient()
	a.OnData(nil, a.Expect)
	if !a.Succeeded() || b.Succeeded() || b.Served() != 0 {
		t.Error("client scripts share progress")
	}
	a.OnData(nil, []byte("HTTP/1.1"))
	if !a.Corrupted() || b.Corrupted() {
		t.Error("client scripts share corruption")
	}
	b.OnData(nil, b.Expect)
	if !b.Succeeded() {
		t.Error("a fresh script failed its own transcript")
	}
}

func TestHTTPSSessionTranscriptContainsSNI(t *testing.T) {
	s := HTTPSSession("www.wikipedia.org")
	if !bytes.Contains(s.client.SendOnEstablish, []byte("www.wikipedia.org")) {
		t.Error("ClientHello does not contain the SNI bytes")
	}
}

func TestFTPSessionDialogue(t *testing.T) {
	s := FTPSession("ultrasurf")
	app := runSession(t, s)
	if !app.Succeeded() {
		t.Fatalf("FTP dialogue failed (established=%v corrupted=%v reset=%v)",
			app.Established(), app.Corrupted(), app.Reset())
	}
	// Succeeded means every byte of Expect arrived intact, so the final
	// response arrived iff the transcript ends with it.
	if !strings.HasSuffix(string(app.Expect), "226 Transfer complete\r\n") {
		t.Error("missing final FTP response")
	}
}

func TestKeepAliveSessionCleanRun(t *testing.T) {
	const n, gap = 4, 30 * time.Second
	s := HTTPQuerySession("kittens").KeepAlive(n, gap)
	if s.Exchanges() != n {
		t.Fatalf("Exchanges = %d, want %d", s.Exchanges(), n)
	}
	app := runSession(t, s)
	if !app.Succeeded() {
		t.Fatalf("clean keep-alive run failed (corrupted=%v reset=%v served=%d)",
			app.Corrupted(), app.Reset(), app.Served())
	}
	if app.Served() != n {
		t.Errorf("Served = %d, want %d", app.Served(), n)
	}
	// The follow-up requests are spaced by gap of virtual time: the last
	// response cannot have landed before (n-1) gaps elapsed.
	if lifetime := app.LastProgressAt() - app.EstablishedAt(); lifetime < (n-1)*gap {
		t.Errorf("transcript finished after %v of virtual time, want >= %v", lifetime, (n-1)*gap)
	}
}

func TestKeepAliveOnlyExtendsOneShotSessions(t *testing.T) {
	for name, s := range map[string]*Session{
		"ftp":  FTPSession("ultrasurf"),
		"smtp": SMTPSession("tibetalk@yahoo.com.cn"),
	} {
		if got := s.KeepAlive(3, time.Second); got != s {
			t.Errorf("%s: KeepAlive extended a multi-step conversation", name)
		}
	}
	s := HTTPQuerySession("kittens")
	if got := s.KeepAlive(1, time.Second); got != s {
		t.Error("KeepAlive(1) must be the session itself")
	}
	if got := DNSSession("example.com").KeepAlive(3, time.Second); got.Exchanges() != 3 {
		t.Error("DNS-over-TCP session did not extend")
	}
}

// TestCutToMatchesKeepAlive: a lease of an n-exchange client template cut
// to m exchanges is KeepAlive(m)'s client script, field by field, for
// every m from 0 to n; a cut to more than n exchanges, or of a session
// KeepAlive does not extend, leaves the script whole.
func TestCutToMatchesKeepAlive(t *testing.T) {
	const gap = 40 * time.Second
	same := func(a, b *Script) bool {
		if !bytes.Equal(a.SendOnEstablish, b.SendOnEstablish) || !bytes.Equal(a.Expect, b.Expect) ||
			a.ExchangeSize != b.ExchangeSize || a.CloseAtEnd != b.CloseAtEnd || len(a.SendAt) != len(b.SendAt) {
			return false
		}
		for i := range a.SendAt {
			p, q := a.SendAt[i], b.SendAt[i]
			if p.Off != q.Off || p.Delay != q.Delay || !bytes.Equal(p.Data, q.Data) {
				return false
			}
		}
		return true
	}
	var leases Scripts
	for name, base := range map[string]*Session{
		"http":  HTTPQuerySession("kittens"),
		"https": HTTPSSession("www.wikipedia.org"),
		"dns":   DNSSession("example.com"),
	} {
		for _, n := range []int{2, 3, 5} {
			tmpl := base.KeepAlive(n, gap).Client()
			for m := 0; m <= n+1; m++ {
				got := leases.Lease(tmpl)
				got.CutTo(m)
				want := base.KeepAlive(min(m, n), gap).Client()
				if !same(got, want) {
					t.Errorf("%s: %d-exchange template cut to %d differs from KeepAlive(%d): "+
						"%d expected bytes, %d sends, exchange size %d; want %d, %d, %d",
						name, n, m, min(m, n), len(got.Expect), len(got.SendAt), got.ExchangeSize,
						len(want.Expect), len(want.SendAt), want.ExchangeSize)
				}
				if m <= 1 {
					// A whole response and then stray bytes serve nothing.
					got.OnData(nil, got.Expect)
					got.OnData(nil, []byte("stray"))
					if got.Served() != 0 {
						t.Errorf("%s: cut to %d, a response and stray bytes serve %d exchanges, want 0", name, m, got.Served())
					}
				}
			}
		}
	}
	for name, base := range map[string]*Session{
		"ftp":  FTPSession("ultrasurf"),
		"smtp": SMTPSession("tibetalk@yahoo.com.cn"),
	} {
		for m := 0; m <= 3; m++ {
			got := leases.Lease(base.KeepAlive(3, gap).Client())
			got.CutTo(m)
			if !same(got, base.Client()) {
				t.Errorf("%s: cut to %d changed the script", name, m)
			}
		}
	}
}

func TestServedCountsWholeExchanges(t *testing.T) {
	s := HTTPQuerySession("kittens").KeepAlive(3, time.Second)
	app := s.NewClient()
	resp := app.Expect[:app.ExchangeSize]
	app.OnData(nil, resp)
	app.OnData(nil, resp[:4]) // partial second response
	if app.Served() != 1 {
		t.Fatalf("Served = %d after one full + one partial exchange, want 1", app.Served())
	}
	app.OnData(nil, []byte("NOT THE TRANSCRIPT"))
	if !app.Corrupted() {
		t.Fatal("corruption not detected")
	}
	if app.Served() != 1 {
		t.Fatalf("Served = %d after corruption, want frozen at 1", app.Served())
	}
	// A one-shot script reports 0 or 1.
	one := HTTPQuerySession("kittens").NewClient()
	if one.Served() != 0 {
		t.Fatal("unstarted one-shot Served != 0")
	}
	one.OnData(nil, one.Expect)
	if one.Served() != 1 {
		t.Fatal("complete one-shot Served != 1")
	}
}

func TestKeepAliveRestartResetsProgress(t *testing.T) {
	s := HTTPQuerySession("kittens").KeepAlive(2, time.Second)
	app := runSession(t, s)
	if app.Served() != 2 {
		t.Fatalf("Served = %d, want 2", app.Served())
	}
	app.Restart()
	if app.Served() != 0 || app.Succeeded() || app.Established() || app.EstablishedAt() != 0 || app.LastProgressAt() != 0 {
		t.Fatal("Restart left keep-alive progress behind")
	}
	// The restarted script drives a fresh connection end to end.
	app2 := runSession(t, s)
	if !app2.Succeeded() {
		t.Fatal("restarted-shape script failed a clean run")
	}
}
