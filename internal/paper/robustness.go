package paper

import (
	"fmt"
	"io"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/strategies"
)

// RobustnessCell is one point of the robustness sweep: a strategy against a
// censor at one loss rate, on the country's sweep protocol.
type RobustnessCell struct {
	Country  string
	Protocol string
	Strategy int // 0 = no evasion
	Loss     float64
	Rate     float64
}

// DefaultLossRates is the ladder the robustness sweep climbs when the
// caller does not pick one: lossless (the golden anchor — must reproduce
// the no-impairment numbers exactly) up through a badly degraded path.
var DefaultLossRates = []float64{0, 0.01, 0.02, 0.05, 0.10}

// RobustnessCountries are the censors the sweep runs against — every
// registered censor, in registry order.
var RobustnessCountries = eval.CensoredCountries()

// Robustness sweeps evasion rate versus loss rate for every paper strategy
// (plus the no-evasion baseline) against every censor, on each censor's
// sweep protocol (HTTP where censored — Jio, which only censors HTTPS,
// sweeps HTTPS). base carries the non-loss impairments (duplication,
// reordering, jitter) held constant across the sweep; its Loss field is
// overridden by each ladder step. At loss 0 with a zero base the impairment
// layer is disabled outright, so that column reproduces the golden
// no-impairment rates bit-for-bit.
//
// This is the experiment the lossless simulator could not ask: does a
// strategy built from precise packet interleavings (and now, under loss,
// from *retransmitted* server packets re-entering the censor's resync
// logic) survive a realistic path?
func Robustness(base netsim.Profile, lossRates []float64, trials int) []RobustnessCell {
	if len(lossRates) == 0 {
		lossRates = DefaultLossRates
	}
	var cells []RobustnessCell
	for ci, country := range RobustnessCountries {
		proto := sweepProtocol(country)
		off, _ := eval.ProtocolFacts(proto)
		for n := 0; n <= 11; n++ {
			for _, loss := range lossRates {
				prof := base
				prof.Loss = loss
				cfg := eval.Trial(country, proto, nil, int64(100000*ci+1000*n)+off)
				cfg.Impairments = netsim.Symmetric(prof)
				if n > 0 {
					s, _ := strategies.ByNumber(n)
					cfg.Strategy = s.Parse()
				}
				cells = append(cells, RobustnessCell{
					Country:  country,
					Protocol: proto,
					Strategy: n,
					Loss:     loss,
					Rate:     eval.Rate(cfg, trials),
				})
			}
		}
	}
	return cells
}

// FormatRobustness renders the sweep as one block per country: strategies
// down, loss rates across.
func FormatRobustness(cells []RobustnessCell) string {
	losses := []float64{}
	seen := map[float64]bool{}
	byKey := map[string]map[int]map[float64]float64{}
	protoOf := map[string]string{}
	for _, c := range cells {
		if !seen[c.Loss] {
			seen[c.Loss] = true
			losses = append(losses, c.Loss)
		}
		if byKey[c.Country] == nil {
			byKey[c.Country] = map[int]map[float64]float64{}
		}
		if byKey[c.Country][c.Strategy] == nil {
			byKey[c.Country][c.Strategy] = map[float64]float64{}
		}
		byKey[c.Country][c.Strategy][c.Loss] = c.Rate
		if c.Protocol != "" {
			protoOf[c.Country] = c.Protocol
		}
	}
	var b strings.Builder
	for _, country := range RobustnessCountries {
		rows, ok := byKey[country]
		if !ok {
			continue
		}
		proto := protoOf[country]
		if proto == "" {
			proto = "http"
		}
		fmt.Fprintf(&b, "%s (%s)\n", strings.ToUpper(country[:1])+country[1:], proto)
		fmt.Fprintf(&b, "  %-40s", "strategy \\ loss")
		for _, l := range losses {
			fmt.Fprintf(&b, " %5.0f%%", 100*l)
		}
		b.WriteByte('\n')
		for n := 0; n <= 11; n++ {
			rates, ok := rows[n]
			if !ok {
				continue
			}
			name := "No evasion"
			num := "–"
			if n > 0 {
				s, _ := strategies.ByNumber(n)
				name = s.Name
				num = fmt.Sprintf("%d", n)
			}
			fmt.Fprintf(&b, "  %-2s %-37s", num, name)
			for _, l := range losses {
				fmt.Fprintf(&b, " %5.0f%%", 100*rates[l])
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PrintRobustness prints the sweep as a report block. base carries the
// non-loss impairments; ladder is the loss rates to climb (nil =
// DefaultLossRates).
func PrintRobustness(w io.Writer, base netsim.Profile, ladder []float64, trials int) {
	per := sample(trials, 2)
	extra := ""
	if base.Duplicate > 0 || base.Reorder > 0 || base.Jitter > 0 {
		extra = fmt.Sprintf(" (dup %.0f%%, reorder %.0f%%, jitter %v)",
			100*base.Duplicate, 100*base.Reorder, base.Jitter)
	}
	header(w, fmt.Sprintf("Robustness: evasion rate vs. packet loss%s (%d trials/cell)", extra, per))
	fmt.Fprint(w, FormatRobustness(Robustness(base, ladder, per)))
}
