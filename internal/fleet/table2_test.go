package fleet

import (
	"math"
	"testing"

	"geneva/internal/eval"
)

// crossFlow lists the registry cells whose censor keeps state across
// flows: the GFW's HTTP box and the TMC's HTTP and TLS tear-downs taint the
// server for a residual window, so one client's censored flow tears down
// its cellmates' and a fleet cell is no longer a set of independent trials.
var crossFlow = map[[2]string]bool{
	{eval.CountryChina, "http"}:         true,
	{eval.CountryTurkmenistan, "http"}:  true,
	{eval.CountryTurkmenistan, "https"}: true,
}

// TestFleetMatchesTable2: a fleet cell (newCells) and a trial rig
// (eval.Rig.reset) are two wirings of the same §4.2 trial, so wherever the
// censor keeps only per-flow state a routed-only one-shot fleet must serve
// the fraction eval.RateStats measures for the strategy the §8 router
// deploys. It covers every such registry cell, plus China HTTP at one
// client per cell, where the residual window has no cellmate to hit (the
// default wave gap outlasts it). Each fleet fraction must lie within 4σ of
// the trial rate, σ the binomial standard error of the difference of two
// fractions over both sample sizes at their pooled rate.
func TestFleetMatchesTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet and a trial batch per Table 2 cell")
	}
	const n = 5000 // connections per fleet, and trials per rate
	for _, d := range eval.Registry() {
		for _, proto := range d.Protocols {
			clients := 4 // the default cell
			if crossFlow[[2]string{d.Country, proto}] {
				if d.Country != eval.CountryChina || proto != "http" {
					continue
				}
				clients = 1
			}
			res, err := Run(Workload{
				Countries:          []string{d.Country},
				Protocols:          []string{proto},
				Connections:        n,
				ClientsPerCell:     clients,
				UnprotectedPerCell: -1,
				Seed:               5,
			})
			if err != nil {
				t.Fatal(err)
			}
			cs := res.PerCountry[d.Country]
			if cs.Routed != n {
				t.Fatalf("%s/%s: %d routed connections, want %d", d.Country, proto, cs.Routed, n)
			}
			trial := eval.RateStats(eval.Trial(d.Country, proto, d.Deploy.Parse(), 5), n)

			fleet, rate := cs.EvasionRate(), trial.Rate()
			pooled := float64(cs.RoutedSucceeded+trial.Succeeded) / (2 * n)
			sigma := math.Sqrt(pooled * (1 - pooled) * 2 / n)
			t.Logf("%s/%s (S%d, %d clients per cell): fleet %.3f, trials %.3f, 4σ = %.3f",
				d.Country, proto, d.Deploy.Number, clients, fleet, rate, 4*sigma)
			if math.Abs(fleet-rate) > 4*sigma {
				t.Errorf("%s/%s: fleet serves %.3f, trials %.3f; the gap exceeds 4σ = %.3f",
					d.Country, proto, fleet, rate, 4*sigma)
			}
		}
	}
}
