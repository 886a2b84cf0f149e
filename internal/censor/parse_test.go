package censor

import (
	"testing"

	"geneva/internal/allocs"
	"geneva/internal/apps"
	"geneva/internal/packet"
	"geneva/internal/race"
)

// TestAllocBudgetParseInPlace pins the DPI's name reading at zero
// allocations: the HTTP Host and request target, the TLS SNI and the DNS
// question name are read in place (the DNS name into a buffer the reader
// owns) and matched against Default() without building a string. The
// names are mixed-case and carry a trailing dot, which the matchers fold
// and trim in place; each one must also still match, so the budget
// measures the matching path.
func TestAllocBudgetParseInPlace(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	bl := Default()
	req := packet.New(fuzzCli, fuzzSrv, 40000, 80)
	req.TCP.Payload = []byte("GET /?q=UltraSurf HTTP/1.1\r\nHost: WWW.Wikipedia.ORG.\r\n\r\n")
	hello := apps.EncodeClientHello("M.YouTube.com.")
	query := apps.EncodeDNSQuery("WWW.Wikipedia.Org")
	var name []byte
	matches := func() (host, target, pipelined, sni, dns, dotted bool) {
		if h, ok := packet.ParseHTTPHostHeader(req.TCP.Payload); ok {
			host = bl.MatchDomain(h)
		}
		if tg, ok := packet.ParseHTTPRequestTarget(req.TCP.Payload); ok {
			target = bl.MatchKeyword(tg)
		}
		pipelined = bl.ForbiddenHost(req)
		if s, ok := packet.ParseTLSServerName(hello); ok {
			sni = bl.MatchDomain(s)
		}
		var ok bool
		if name, ok = packet.ParseDNSQueryName(name[:0], query); ok {
			dns = bl.MatchDomain(name)
			dotted = bl.MatchDomain(append(name, '.'))
		}
		return
	}
	if host, target, pipelined, sni, dns, dotted := matches(); !host || !target || !pipelined || !sni || !dns || !dotted {
		t.Fatalf("matches: host %v, target %v, pipelined %v, SNI %v, DNS %v, DNS with a trailing dot %v; want all true",
			host, target, pipelined, sni, dns, dotted)
	}
	mean := allocs.Mean(10, 1000, func() { matches() })
	t.Logf("%.4f allocs per round of matches (budget 0)", mean)
	if mean != 0 {
		t.Errorf("reading and matching names allocates %.4f objects per round, budget is 0", mean)
	}
}
