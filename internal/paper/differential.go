package paper

import (
	"fmt"
	"io"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/strategies"
)

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
	for _, d := range eval.Registry() {
		for _, proto := range d.Protocols {
			for _, s := range DifferentialStrategies {
				off, _ := eval.ProtocolFacts(proto)
				cfg := eval.Trial(d.Country, proto, nil, int64(1000*s)+off)
				cfg.WithTrace = true
				if s > 0 {
					st, ok := strategies.ByNumber(s)
					if !ok {
						panic(fmt.Sprintf("paper: unknown differential strategy %d", s))
					}
					cfg.Strategy = st.Parse()
				}
				cells = append(cells, DifferentialCell{
					Country:  d.Country,
					Protocol: proto,
					Strategy: s,
					Cause:    eval.ClassifyFailure(eval.Run(cfg)),
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

func printDifferential(w io.Writer, _ int) {
	header(w, "Cross-censor differential failure-cause matrix")
	fmt.Fprint(w, FormatDifferential(Differential()))
	fmt.Fprintln(w, "\n(one traced trial per cell; causes classified from packet evidence —")
	fmt.Fprintln(w, " the golden copy lives in internal/eval/testdata/differential.txt)")
}
