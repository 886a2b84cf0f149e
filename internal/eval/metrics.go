package eval

import "geneva/internal/obs"

// Trial-outcome counters. Result and RateResult already carry these totals;
// the counters stay only because the benchmark's count pass (bench/layers.go)
// reads them. The fitness cache's tallies live only in EvalStats, which the
// Evaluator returns and cmd/evolve's manifest records.
var (
	mTrials       = obs.NewCounter("eval.trials")
	mTrialSuccess = obs.NewCounter("eval.trials_succeeded")
)
