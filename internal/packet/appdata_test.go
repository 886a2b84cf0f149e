package packet

import "testing"

const (
	reqA = "GET /index HTTP/1.1\r\nHost: blocked.example\r\nAccept: */*\r\n\r\n"
	reqB = "GET /other HTTP/1.1\r\nHost: benign.example\r\nAccept: */*\r\n\r\n"
)

func TestNextHTTPRequestOffset(t *testing.T) {
	if off := NextHTTPRequestOffset([]byte(reqA + reqB)); off != len(reqA) {
		t.Fatalf("NextHTTPRequestOffset = %d, want %d", off, len(reqA))
	}
	// A single complete request has no follow-up.
	if off := NextHTTPRequestOffset([]byte(reqA)); off != 0 {
		t.Fatalf("single request: offset %d, want 0", off)
	}
	// Anchoring: a payload that is not itself a request has no boundaries.
	if off := NextHTTPRequestOffset([]byte("junk\r\n\r\n" + reqB)); off != 0 {
		t.Fatalf("unanchored payload: offset %d, want 0", off)
	}
	// Incomplete header block: no terminator yet, fail open.
	if off := NextHTTPRequestOffset([]byte("GET /x HTTP/1.1\r\nHost: a\r\n")); off != 0 {
		t.Fatalf("incomplete request: offset %d, want 0", off)
	}
}

func TestVisitHTTPRequests(t *testing.T) {
	var targets, hosts []string
	all := func(target, host []byte, hok bool) bool {
		targets = append(targets, string(target))
		hosts = append(hosts, string(host))
		return false
	}
	if VisitHTTPRequests([]byte(reqA+reqB), all) {
		t.Fatal("visit returned false everywhere but walk reported a match")
	}
	if len(targets) != 2 || targets[0] != "/index" || targets[1] != "/other" {
		t.Fatalf("targets = %v", targets)
	}
	if hosts[0] != "blocked.example" || hosts[1] != "benign.example" {
		t.Fatalf("hosts = %v", hosts)
	}
	// Early exit on first match.
	calls := 0
	if !VisitHTTPRequests([]byte(reqA+reqB), func([]byte, []byte, bool) bool {
		calls++
		return true
	}) {
		t.Fatal("match on first request not reported")
	}
	if calls != 1 {
		t.Fatalf("visit called %d times after a first-request match", calls)
	}
	// The walk stops at the first follow-up that does not parse.
	targets = nil
	VisitHTTPRequests([]byte(reqA+"garbage"), func(target, _ []byte, _ bool) bool {
		targets = append(targets, string(target))
		return false
	})
	if len(targets) != 1 || targets[0] != "/index" {
		t.Fatalf("malformed follow-up: targets = %v", targets)
	}
}

// TestAppViewPipelinedHTTP checks the censors' view of a keep-alive
// payload: a forbidden Host pipelined behind a benign request matches, and
// no request matches in a payload that does not begin with a request line.
func TestAppViewPipelinedHTTP(t *testing.T) {
	hostIs := func(want string) func([]byte, []byte, bool) bool {
		return func(_, host []byte, hok bool) bool { return hok && string(host) == want }
	}
	if !VisitHTTPRequests([]byte(reqB+reqA), hostIs("blocked.example")) {
		t.Fatal("pipelined forbidden Host not matched")
	}
	if VisitHTTPRequests([]byte(reqB+reqA), hostIs("missing.example")) {
		t.Fatal("matched a Host no request carries")
	}
	if VisitHTTPRequests([]byte("junk\r\n\r\n"+reqA), func([]byte, []byte, bool) bool { return true }) {
		t.Fatal("matched requests in an unanchored payload")
	}
}

// TestAppViewTLSAndDNS checks that the TLS and DNS parsers find nothing in
// an HTTP request, whose Host the HTTP parser still reads.
func TestAppViewTLSAndDNS(t *testing.T) {
	p := []byte(reqA)
	if _, ok := ParseTLSServerName(p); ok {
		t.Fatal("extracted SNI from an HTTP request")
	}
	if _, ok := ParseDNSQueryName(nil, p); ok {
		t.Fatal("extracted a DNS name from an HTTP request")
	}
	if host, ok := ParseHTTPHostHeader(p); !ok || string(host) != "blocked.example" {
		t.Fatalf("ParseHTTPHostHeader = %q, %v", host, ok)
	}
}
