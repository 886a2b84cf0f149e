package paper

import (
	"fmt"
	"io"

	"geneva/internal/eval"
)

// --- §8 one router, per-client strategies (E19) ---

// RouterDeployment runs the §8 scenario: one server serves clients in
// every registered country (plus an uncensored client outside every
// prefix), and each gets the right strategy purely from its address. Each
// country is probed on its sweep protocol (HTTP where censored, otherwise
// the censor's first censored protocol — Jio, for instance, only censors
// HTTPS). It returns country -> success rate.
func RouterDeployment(trials int) map[string]float64 {
	out := make(map[string]float64)
	for _, country := range eval.Countries() {
		out[country] = eval.Rate(routerTrial(country, 4200), trials)
	}
	return out
}

// routerTrial is RouterDeployment's trial: the client at its country's
// routed address, served the strategy eval.DeployFor picks from that
// address alone (none for the uncensored client). Its engine draws from the
// trial's engine stream, as every trial's does; Strategies 1, 8 and 11 make
// no random draws, so that stream cannot move an outcome.
func routerTrial(country string, seed int64) eval.Config {
	addr := eval.RoutedClientAddr(country, 0)
	s, _, _ := eval.DeployFor(addr)
	cfg := eval.Trial(country, sweepProtocol(country), s, seed)
	cfg.ClientAddress = addr
	return cfg
}

func printDeploy(w io.Writer, trials int) {
	header(w, "§8: one router, per-client strategies from the SYN alone")
	got := RouterDeployment(sample(trials, 4))
	const uncensored = "(uncensored)"
	col := max(width(eval.Countries()), len(uncensored))
	for _, c := range eval.Countries() {
		label := c
		if label == "" {
			label = uncensored
		}
		fmt.Fprintf(w, "  %-*s routed-strategy success: %3.0f%%\n", col, label, 100*got[c])
	}
}
