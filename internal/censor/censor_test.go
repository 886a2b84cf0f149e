package censor

import (
	"net/netip"
	"strings"
	"testing"

	"geneva/internal/allocs"
	"geneva/internal/packet"
)

func TestBlocklistDomainMatching(t *testing.T) {
	bl := Default()
	cases := []struct {
		name string
		want bool
	}{
		{"www.wikipedia.org", true},
		{"WWW.WIKIPEDIA.ORG", true},
		{"www.wikipedia.org.", true},
		{"m.www.wikipedia.org", true}, // subdomain
		{"wikipedia.org", false},      // parent is not blocked
		{"youtube.com", true},
		{"notyoutube.com", false}, // suffix without dot boundary
		{"example.com", false},
	}
	for _, c := range cases {
		if got := bl.MatchDomain([]byte(c.name)); got != c.want {
			t.Errorf("MatchDomain(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBlocklistMixedCaseEntries is the regression test for the casing bug:
// MatchDomain lowercased the probed name but compared it against raw
// entries, so an operator-supplied mixed-case entry could never match
// anything. The same audit covers MatchKeyword and MatchEmail.
func TestBlocklistMixedCaseEntries(t *testing.T) {
	bl := Blocklist{
		Domains:  []string{"Wikipedia.ORG", " Blocked.Example. "},
		Keywords: []string{"UltraSurf"},
		Emails:   []string{" TibeTalk@Yahoo.com.CN "},
	}
	if !bl.MatchDomain([]byte("wikipedia.org")) {
		t.Error("mixed-case domain entry did not match lowercase name")
	}
	if !bl.MatchDomain([]byte("M.WIKIPEDIA.org")) {
		t.Error("mixed-case entry did not match mixed-case subdomain")
	}
	if !bl.MatchDomain([]byte("blocked.example")) {
		t.Error("padded dotted mixed-case entry did not match")
	}
	if !bl.MatchKeyword([]byte("/?q=ultrasurf")) {
		t.Error("mixed-case keyword entry did not match")
	}
	if !bl.MatchEmail([]byte("tibetalk@yahoo.com.cn")) {
		t.Error("mixed-case email entry did not match")
	}
	if bl.MatchDomain([]byte("wikipedia.org.example")) {
		t.Error("suffix without dot boundary matched")
	}
}

// TestMatchDomainNoAlloc pins the hot-path guarantee: matching against an
// already-normalized (Default) blocklist allocates nothing.
func TestMatchDomainNoAlloc(t *testing.T) {
	bl := Default()
	blocked, benign := []byte("www.wikipedia.org"), []byte("example.com")
	target, rcpt := []byte("/?q=ultrasurf"), []byte("tibetalk@yahoo.com.cn")
	if mean := allocs.Mean(10, 100, func() {
		bl.MatchDomain(blocked)
		bl.MatchDomain(benign)
		bl.MatchKeyword(target)
		bl.MatchEmail(rcpt)
	}); mean != 0 {
		t.Errorf("Match* against normalized list allocates %.3f/op, want 0", mean)
	}
}

func TestBlocklistKeywordMatching(t *testing.T) {
	bl := Default()
	if !bl.MatchKeyword([]byte("/?q=ultrasurf")) || !bl.MatchKeyword([]byte("ULTRASURF")) {
		t.Error("keyword matching should be case-insensitive substring")
	}
	if bl.MatchKeyword([]byte("/?q=kittens")) {
		t.Error("benign keyword matched")
	}
}

func TestBlocklistEmailMatching(t *testing.T) {
	bl := Default()
	if !bl.MatchEmail([]byte("tibetalk@yahoo.com.cn")) || !bl.MatchEmail([]byte(" TIBETALK@yahoo.com.cn ")) {
		t.Error("email matching failed")
	}
	if bl.MatchEmail([]byte("friend@example.org")) {
		t.Error("benign email matched")
	}
}

func TestInjectRSTShape(t *testing.T) {
	from := packet.Flow{
		SrcAddr: netip.MustParseAddr("198.51.100.9"), SrcPort: 80,
		DstAddr: netip.MustParseAddr("10.1.0.2"), DstPort: 40000,
	}
	p := InjectRST(from, 1234, 5678)
	if p.TCP.Flags != packet.FlagRST|packet.FlagACK {
		t.Errorf("flags = %s", packet.FlagsString(p.TCP.Flags))
	}
	if p.TCP.Seq != 1234 || p.TCP.Ack != 5678 {
		t.Error("seq/ack not propagated")
	}
	if p.IP.Src != from.SrcAddr || p.TCP.DstPort != 40000 {
		t.Error("addressing wrong")
	}
}

func TestBlockPageShape(t *testing.T) {
	from := packet.Flow{
		SrcAddr: netip.MustParseAddr("198.51.100.9"), SrcPort: 80,
		DstAddr: netip.MustParseAddr("10.1.0.2"), DstPort: 40000,
	}
	p := BlockPage(from, 1, 2, "<html>blocked</html>")
	if p.TCP.Flags != packet.FlagFIN|packet.FlagPSH|packet.FlagACK {
		t.Errorf("flags = %s, want FPA", packet.FlagsString(p.TCP.Flags))
	}
	body := string(p.TCP.Payload)
	if !strings.HasPrefix(body, "HTTP/1.1 200 OK") || !strings.Contains(body, "blocked") {
		t.Errorf("payload = %q", body)
	}
}
