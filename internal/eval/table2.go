package eval

import (
	"fmt"
	"slices"
	"strings"

	"geneva/internal/core"
	"geneva/internal/strategies"
)

// Table2Row is one row of Table 2: a strategy (or "No evasion") with its
// success rate per protocol. Rates are in [0,1]; -1 marks cells the paper
// leaves blank ("–").
type Table2Row struct {
	Number int
	Name   string
	Rates  map[string]float64
}

// Table2Block is one country's block of Table 2; its columns are the
// protocol table's rows.
type Table2Block struct {
	Country string
	Rows    []Table2Row
}

// Table2 computes the paper's headline table with the given number of
// trials per cell, one block per registered censor: the no-evasion
// baseline on every protocol, then each of the censor's Table2 strategies
// on the protocols it censors ("–" elsewhere). Cell seeds are 1000 ×
// strategy number + the protocol's seed offset (they key off strategy
// numbers and protocols, never off registry position), so two runs agree
// exactly. A differential-matrix cell uses the same seed, so it is trial 0
// of the matching Table 2 cell.
func Table2(trials int) []Table2Block {
	var blocks []Table2Block
	for _, d := range Registry() {
		b := Table2Block{Country: d.Country}
		for _, s := range append([]strategies.Strategy{{Name: "No evasion"}}, d.Table2...) {
			row := Table2Row{Number: s.Number, Name: s.Name, Rates: map[string]float64{}}
			var strategy *core.Strategy
			if s.Number > 0 {
				strategy = s.Parse()
			}
			for _, p := range protocolTable {
				if s.Number > 0 && !slices.Contains(d.Protocols, p.name) {
					row.Rates[p.name] = -1 // the paper's "–"
					continue
				}
				row.Rates[p.name] = Rate(Trial(d.Country, p.name, strategy, int64(1000*s.Number)+p.seed), trials)
			}
			b.Rows = append(b.Rows, row)
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// FormatTable2 renders the blocks in the paper's layout.
func FormatTable2(blocks []Table2Block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-38s", "#", "Description")
	for _, p := range protocolTable {
		fmt.Fprintf(&b, " %6s", strings.ToUpper(p.name))
	}
	b.WriteByte('\n')
	for _, blk := range blocks {
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
		fmt.Fprintf(&b, "%s\n", strings.ToUpper(blk.Country[:1])+blk.Country[1:])
		for _, row := range blk.Rows {
			num := "–"
			if row.Number > 0 {
				num = fmt.Sprintf("%d", row.Number)
			}
			fmt.Fprintf(&b, "%-4s %-38s", num, row.Name)
			for _, p := range protocolTable {
				r, ok := row.Rates[p.name]
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
