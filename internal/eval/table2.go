package eval

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"geneva/internal/apps"
	"geneva/internal/core"
	"geneva/internal/strategies"
)

// sessionCache memoizes the prototypes SessionFor builds: encoding a DNS
// query or TLS ClientHello is pure, so the work is done once per
// (country, protocol, forbidden) and shared across every trial.
var sessionCache struct {
	sync.Mutex
	m map[sessionKey]*apps.Session
}

type sessionKey struct {
	country, protocol string
	forbidden         bool
}

// SessionFor builds the application exchange the paper uses to trigger each
// country's censorship (§4.2). forbidden=false swaps in benign content.
//
// Callers get a shallow copy of the cached prototype: the port-sensitivity
// follow-up retargets Session.Port, and the embedded Scripts are only ever
// Clone()d per connection, never mutated, so sharing them is safe.
func SessionFor(country, protocol string, forbidden bool) *apps.Session {
	k := sessionKey{country, protocol, forbidden}
	sessionCache.Lock()
	proto, ok := sessionCache.m[k]
	if !ok {
		proto = buildSession(country, protocol, forbidden)
		if sessionCache.m == nil {
			sessionCache.m = make(map[sessionKey]*apps.Session)
		}
		sessionCache.m[k] = proto
	}
	sessionCache.Unlock()
	s := *proto
	return &s
}

func buildSession(country, protocol string, forbidden bool) *apps.Session {
	pick := func(bad, good string) string {
		if forbidden {
			return bad
		}
		return good
	}
	switch protocol {
	case "dns":
		return apps.DNSSession(pick("www.wikipedia.org", "www.kernel.org"))
	case "ftp":
		return apps.FTPSession(pick("ultrasurf", "notes.txt"))
	case "http":
		if country == CountryChina || country == CountryNone {
			// China: censored keyword in the URL parameters.
			return apps.HTTPQuerySession(pick("ultrasurf", "kittens"))
		}
		// India/Iran/Kazakhstan: blacklisted website in the Host header.
		return apps.HTTPHostSession(pick("blocked.example", "allowed.example"))
	case "https":
		if country == CountryIran {
			return apps.HTTPSSession(pick("youtube.com", "example.org"))
		}
		return apps.HTTPSSession(pick("www.wikipedia.org", "example.org"))
	case "smtp":
		return apps.SMTPSession(pick("tibetalk@yahoo.com.cn", "friend@example.org"))
	}
	panic("eval: unknown protocol " + protocol)
}

// TriesFor returns the connection attempts per trial: the paper tests DNS
// with a maximum of 3 tries (RFC 7766 retry behaviour); everything else
// gets one.
func TriesFor(protocol string) int {
	if protocol == "dns" {
		return 3
	}
	return 1
}

// ChinaProtocols are the five protocols the GFW censors (Table 1/2).
var ChinaProtocols = []string{"dns", "ftp", "http", "https", "smtp"}

// Table2Row is one row of Table 2: a strategy (or "No evasion") with its
// success rate per protocol. Rates are in [0,1]; -1 marks cells the paper
// leaves blank ("–").
type Table2Row struct {
	Number int
	Name   string
	Rates  map[string]float64
}

// Table2Block is one country's block of Table 2.
type Table2Block struct {
	Country   string
	Protocols []string
	Rows      []Table2Row
}

// Table2 computes the paper's headline table with the given number of
// trials per cell, one block per registered censor: the no-evasion
// baseline on every protocol, then each of the censor's Table2 strategies
// on the protocols it censors ("–" elsewhere). Cell seeds are 1000 ×
// strategy number + protoSeed (they key off strategy numbers and
// protocols, never off registry position), so two runs agree exactly. A
// differential-matrix cell uses the same seed, so it is trial 0 of the
// matching Table 2 cell.
func Table2(trials int) []Table2Block {
	var blocks []Table2Block
	for _, d := range Registry() {
		b := Table2Block{Country: d.Country, Protocols: ChinaProtocols}
		for _, s := range append([]strategies.Strategy{{Name: "No evasion"}}, d.Table2...) {
			row := Table2Row{Number: s.Number, Name: s.Name, Rates: map[string]float64{}}
			for _, proto := range ChinaProtocols {
				if s.Number > 0 && !slices.Contains(d.Protocols, proto) {
					row.Rates[proto] = -1 // the paper's "–"
					continue
				}
				cfg := Config{
					Country: d.Country,
					Session: SessionFor(d.Country, proto, true),
					Tries:   TriesFor(proto),
					Seed:    int64(1000*s.Number + protoSeed(proto)),
				}
				if s.Number > 0 {
					cfg.Strategy = s.Parse()
				}
				row.Rates[proto] = Rate(cfg, trials)
			}
			b.Rows = append(b.Rows, row)
		}
		blocks = append(blocks, b)
	}
	return blocks
}

func protoSeed(proto string) int {
	switch proto {
	case "dns":
		return 1
	case "ftp":
		return 2
	case "http":
		return 3
	case "https":
		return 4
	case "smtp":
		return 5
	}
	return 9
}

// FormatTable2 renders the blocks in the paper's layout.
func FormatTable2(blocks []Table2Block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-38s %6s %6s %6s %6s %6s\n",
		"#", "Description", "DNS", "FTP", "HTTP", "HTTPS", "SMTP")
	for _, blk := range blocks {
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
		fmt.Fprintf(&b, "%s\n", strings.ToUpper(blk.Country[:1])+blk.Country[1:])
		for _, row := range blk.Rows {
			num := "–"
			if row.Number > 0 {
				num = fmt.Sprintf("%d", row.Number)
			}
			fmt.Fprintf(&b, "%-4s %-38s", num, row.Name)
			for _, proto := range blk.Protocols {
				r, ok := row.Rates[proto]
				switch {
				case !ok || r < 0:
					fmt.Fprintf(&b, " %6s", "–")
				default:
					fmt.Fprintf(&b, " %5.0f%%", 100*r)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// byNumber compiles a paper strategy by number (test/benchmark helper).
func byNumber(n int) (*core.Strategy, bool) {
	s, ok := strategies.ByNumber(n)
	if !ok {
		return nil, false
	}
	return s.Parse(), true
}
