package paper

import (
	"fmt"
	"io"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/strategies"
)

// Waterfall runs one traced connection with the given strategy and renders
// the packet exchange in the style of Figures 1 and 2. The country picks
// the censor ("" for a censor-free diagram of pure client/server behaviour).
func Waterfall(country string, strat *strategies.Strategy, seed int64) string {
	cfg := eval.Trial(country, "http", nil, seed)
	cfg.WithTrace = true
	title := "Normal behavior"
	if strat != nil {
		cfg.Strategy = strat.Parse()
		title = fmt.Sprintf("Strategy %d: %s", strat.Number, strat.Name)
	}
	res := eval.Run(cfg)
	out := res.Trace.Waterfall(title)
	verdict := "censored"
	if res.Success {
		verdict = "evaded censorship"
	}
	if country == eval.CountryNone {
		verdict = "no censor present"
	}
	return out + fmt.Sprintf("  => %s\n", verdict)
}

// Figure1 renders the China waterfalls: normal behaviour plus Strategies
// 1-8 (the paper's Figure 1). Each strategy is drawn at its EvadingSeed, so
// the probabilistic strategies show their successful path.
func Figure1() string {
	var b strings.Builder
	b.WriteString(Waterfall(eval.CountryChina, nil, 1))
	b.WriteByte('\n')
	for _, s := range strategies.China() {
		s := s
		seed := eval.EvadingSeed(eval.Trial(eval.CountryChina, "http", s.Parse(), 0))
		b.WriteString(Waterfall(eval.CountryChina, &s, seed))
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure2 renders the Kazakhstan waterfalls (Strategies 9-11).
func Figure2() string {
	var b strings.Builder
	for _, s := range []strategies.Strategy{
		strategies.Strategy9, strategies.Strategy10, strategies.Strategy11,
	} {
		s := s
		b.WriteString(Waterfall(eval.CountryKazakhstan, &s, 1))
		b.WriteByte('\n')
	}
	return b.String()
}

func printFigure1(w io.Writer, _ int) {
	header(w, "Figure 1: server-side evasion waterfalls (China)")
	fmt.Fprint(w, Figure1())
}

func printFigure2(w io.Writer, _ int) {
	header(w, "Figure 2: server-side evasion waterfalls (Kazakhstan)")
	fmt.Fprint(w, Figure2())
}
