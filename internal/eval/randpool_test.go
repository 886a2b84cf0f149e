package eval_test

import (
	"testing"
	"time"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/fleet"
	"geneva/internal/netsim"
	"geneva/internal/paper"
	"geneva/internal/selector"
	"geneva/internal/strategies"
)

// TestRandPoolBalance checks that every generator a fleet run, a fitness
// batch, a trial or an experiment acquires goes back to the pool: the
// outstanding count returns to where it started.
func TestRandPoolBalance(t *testing.T) {
	base := fleet.Workload{
		Countries:   []string{eval.CountryChina, eval.CountryIran, eval.CountryKazakhstan, eval.CountryNone},
		Protocols:   []string{"http", "dns"},
		Connections: 120,
		Workers:     2,
		Seed:        7,
	}
	selected := base
	selected.Portfolio = eval.DefaultPortfolio()
	selected.Selection = selector.Selection{Policy: selector.EpsilonGreedy}
	selected.Shift = fleet.CensorShift{AtWave: 2, Country: eval.CountryChina, Params: map[string]float64{"prst": 0}}
	keepAlive := base
	keepAlive.SessionRequests = 3
	keepAlive.RequestGap = 40 * time.Second
	keepAlive.Reconnect = fleet.ReconnectPolicy{MaxAttempts: 3, Backoff: 20 * time.Second, RetryAll: true}
	keepAlive.Impairments = netsim.Profile{Loss: 0.02}

	runFleet := func(wl fleet.Workload) func() error {
		return func() error {
			_, err := fleet.Run(wl)
			return err
		}
	}
	var batch []*core.Strategy
	for _, n := range []int{1, 3, 8, 11} {
		s, _ := strategies.ByNumber(n)
		batch = append(batch, s.Parse())
	}
	runBatch := func(workers int) func() error {
		return func() error {
			ev := eval.NewEvaluator(eval.CountryKazakhstan, "http", 6, 3)
			ev.Workers = workers
			ev.BatchFitness(batch)
			return nil
		}
	}

	s5, _ := strategies.ByNumber(5)
	trial := eval.Config{
		Country:     eval.CountryChina,
		Session:     eval.SessionFor(eval.CountryChina, "http", true),
		Strategy:    s5.Parse(),
		Seed:        11,
		Impairments: netsim.Symmetric(netsim.Profile{Loss: 0.05}),
	}
	rateStats := func(workers int) func() error {
		return func() error {
			cfg := trial
			cfg.Workers = workers
			eval.RateStats(cfg, 6)
			return nil
		}
	}

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"fleet/pinned", runFleet(base)},
		{"fleet/selection-shift", runFleet(selected)},
		{"fleet/keep-alive-reconnect", runFleet(keepAlive)},
		{"batch-fitness/workers=1", runBatch(1)},
		{"batch-fitness/workers=2", runBatch(2)},
		{"run", func() error { eval.Run(trial); return nil }},
		{"rate-stats/workers=1", rateStats(1)},
		{"rate-stats/workers=2", rateStats(2)},
		{"ablations", func() error { paper.Ablations(2); return nil }},
		{"residual-censorship", func() error { paper.ResidualCensorshipExperiment(); return nil }},
		{"statelessness", func() error { paper.Statelessness(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := eval.RandOutstanding()
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			if after := eval.RandOutstanding(); after != before {
				t.Errorf("%d generators outstanding afterwards, %d before", after, before)
			}
		})
	}
}
