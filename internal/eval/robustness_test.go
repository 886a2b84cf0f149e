package eval_test

import (
	"strings"
	"testing"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/paper"
	"geneva/internal/strategies"
)

// TestRobustnessLossZeroMatchesUnimpaired is the sweep's anchor: the loss-0
// column uses a fully zero impairment profile, which disables the layer
// outright, so every cell must equal a plain unimpaired Rate at the same
// seed — exact float equality, not tolerance.
func TestRobustnessLossZeroMatchesUnimpaired(t *testing.T) {
	cells := paper.Robustness(netsim.Profile{}, []float64{0}, 25)
	if want := len(paper.RobustnessCountries) * 12; len(cells) != want {
		t.Fatalf("sweep produced %d cells, want %d", len(cells), want)
	}
	ci := map[string]int{}
	for i, c := range paper.RobustnessCountries {
		ci[c] = i
	}
	for _, cell := range cells {
		off, _ := eval.ProtocolFacts(cell.Protocol)
		cfg := eval.Config{
			Country: cell.Country,
			Session: eval.SessionFor(cell.Country, cell.Protocol, true),
			Tries:   eval.TriesFor(cell.Protocol),
			Seed:    int64(100000*ci[cell.Country]+1000*cell.Strategy) + off,
		}
		if cell.Strategy > 0 {
			s, _ := strategies.ByNumber(cell.Strategy)
			cfg.Strategy = s.Parse()
		}
		if plain := eval.Rate(cfg, 25); plain != cell.Rate {
			t.Errorf("%s strategy %d: loss-0 sweep rate %v != unimpaired rate %v",
				cell.Country, cell.Strategy, cell.Rate, plain)
		}
	}
}

// TestRobustnessSweepUnderLoss exercises the impaired path end to end and
// checks two structural facts that hold at any plausible seed: Strategy 8
// keeps working against the single-protocol censors even on a lossy path
// (retransmission recovers the handshake), and the no-evasion baseline stays
// censored.
func TestRobustnessSweepUnderLoss(t *testing.T) {
	cells := paper.Robustness(netsim.Profile{}, []float64{0.02}, 40)
	rate := func(country string, strategy int) float64 {
		for _, c := range cells {
			if c.Country == country && c.Strategy == strategy {
				return c.Rate
			}
		}
		t.Fatalf("missing cell %s/%d", country, strategy)
		return -1
	}
	for _, country := range []string{eval.CountryIndia, eval.CountryIndiaJio, eval.CountryIndiaVodafone,
		eval.CountryIran, eval.CountryKazakhstan, eval.CountryTurkmenistan} {
		if r := rate(country, 8); r < 0.85 {
			t.Errorf("%s: Strategy 8 at 2%% loss = %.2f, want ≥0.85 (retransmission should recover)", country, r)
		}
		if r := rate(country, 0); r > 0.15 {
			t.Errorf("%s: no-evasion baseline at 2%% loss = %.2f, want ≈0", country, r)
		}
	}
}

// TestFormatRobustness smoke-tests the renderer: one block per country, a
// column per loss rate, a row per strategy.
func TestFormatRobustness(t *testing.T) {
	cells := []paper.RobustnessCell{
		{Country: eval.CountryChina, Strategy: 0, Loss: 0, Rate: 0.02},
		{Country: eval.CountryChina, Strategy: 0, Loss: 0.05, Rate: 0.01},
		{Country: eval.CountryChina, Strategy: 8, Loss: 0, Rate: 0.5},
		{Country: eval.CountryChina, Strategy: 8, Loss: 0.05, Rate: 0.25},
	}
	out := paper.FormatRobustness(cells)
	for _, want := range []string{"China (http)", "No evasion", "TCP Window Reduction", "0%", "5%", "50%", "25%"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted sweep missing %q:\n%s", want, out)
		}
	}
}
