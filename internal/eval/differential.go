package eval

import (
	"bytes"
	"fmt"
	"strings"

	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/strategies"
)

// Failure causes distinguished by ClassifyFailure. The differential matrix
// (docs/EXPERIMENTS.md) exists to show these apart: the same strategy can
// fail against two censors for entirely different mechanical reasons, which
// is the evidence that the models are different machines, not one censor
// with different blocklists.
const (
	CauseEvaded    = "evaded"             // the trial succeeded
	CauseHijacked  = "hijacked"           // in-path MITM dropped the request and answered with a page (Kazakhstan)
	CauseForgedDNS = "forged-dns"         // injected forged DNS response (TMC)
	Cause302       = "injected-302"       // injected HTTP redirect (Vodafone)
	CauseBlockpage = "injected-blockpage" // injected HTTP block page (Airtel)
	CauseRST       = "injected-rst"       // injected RST tear-down (GFW, TMC)
	CauseBlackhole = "blackholed"         // silently dropped in-path (Iran, Jio)
	CauseBroken    = "broken"             // failed with no censor action: the strategy broke the connection itself
)

// ClassifyFailure reduces a traced trial to its failure cause: what the
// censor mechanically did that made the connection fail. The verdict comes
// from the packet evidence alone (injected packet shapes, in-path drops),
// never from censor notes, so a censor cannot claim an outcome its packets
// don't show. A hijack is an in-path drop beside an injected HTTP page.
func ClassifyFailure(res Result) string {
	if res.Success {
		return CauseEvaded
	}
	if res.CensorEvents == 0 || res.Trace == nil {
		return CauseBroken
	}
	var saw302, sawPage, sawDNS, sawRST, sawDrop bool
	for _, e := range res.Trace.Entries {
		switch e.Event {
		case netsim.EventInjected:
			p := e.Pkt
			switch {
			case bytes.HasPrefix(p.TCP.Payload, []byte("HTTP/1.1 302")):
				saw302 = true
			case bytes.HasPrefix(p.TCP.Payload, []byte("HTTP/1.1 ")):
				sawPage = true
			case p.TCP.SrcPort == 53 && len(p.TCP.Payload) > 0:
				sawDNS = true
			case p.TCP.Flags&packet.FlagRST != 0:
				sawRST = true
			}
		case netsim.EventDropped:
			sawDrop = true
		}
	}
	switch {
	case sawDrop && sawPage:
		return CauseHijacked
	case sawDNS:
		return CauseForgedDNS
	case saw302:
		return Cause302
	case sawPage:
		return CauseBlockpage
	case sawRST:
		return CauseRST
	case sawDrop:
		return CauseBlackhole
	}
	return CauseBroken
}

// DifferentialStrategies are the strategy columns of the differential
// matrix: no evasion, the GFW's deployment pick (Strategy 1), the
// single-packet-censor killer (Strategy 8), and Kazakhstan's Strategy 11.
var DifferentialStrategies = []int{0, 1, 8, 11}

// DifferentialCell is one cell of the matrix: what one censor did to one
// forbidden session on one protocol under one strategy.
type DifferentialCell struct {
	Country  string
	Protocol string
	Strategy int
	Cause    string
}

// Differential runs the cross-censor differential matrix: every registered
// censor × every protocol it censors × DifferentialStrategies, one traced
// trial each. Seeds key off (strategy, protocol) only — never off registry
// position — so adding a censor appends rows without perturbing existing
// cells.
func Differential() []DifferentialCell {
	var cells []DifferentialCell
	for _, d := range Registry() {
		for _, proto := range d.Protocols {
			for _, s := range DifferentialStrategies {
				cfg := Trial(d.Country, proto, nil, int64(1000*s)+protocolRow(proto).seed)
				cfg.WithTrace = true
				if s > 0 {
					st, ok := strategies.ByNumber(s)
					if !ok {
						panic(fmt.Sprintf("eval: unknown differential strategy %d", s))
					}
					cfg.Strategy = st.Parse()
				}
				cells = append(cells, DifferentialCell{
					Country:  d.Country,
					Protocol: proto,
					Strategy: s,
					Cause:    ClassifyFailure(Run(cfg)),
				})
			}
		}
	}
	return cells
}

// FormatDifferential renders the matrix: one row per (censor, protocol),
// one column per strategy.
func FormatDifferential(cells []DifferentialCell) string {
	type rowKey struct{ country, proto string }
	rows := []rowKey{}
	seen := map[rowKey]map[int]string{}
	for _, c := range cells {
		k := rowKey{c.Country, c.Protocol}
		if seen[k] == nil {
			seen[k] = map[int]string{}
			rows = append(rows, k)
		}
		seen[k][c.Strategy] = c.Cause
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-6s", "censor", "proto")
	for _, s := range DifferentialStrategies {
		name := "none"
		if s > 0 {
			name = fmt.Sprintf("strategy-%d", s)
		}
		fmt.Fprintf(&b, " %-19s", name)
	}
	b.WriteByte('\n')
	for _, k := range rows {
		fmt.Fprintf(&b, "%-16s %-6s", k.country, k.proto)
		for _, s := range DifferentialStrategies {
			fmt.Fprintf(&b, " %-19s", seen[k][s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
