package eval

import "geneva/internal/obs"

// Trial-outcome counters. The fitness cache's tallies live only in
// EvalStats, which the Evaluator returns and cmd/evolve's manifest records.
var (
	mTrials           = obs.NewCounter("eval.trials")
	mTrialSuccess     = obs.NewCounter("eval.trials_succeeded")
	mTrialEstablished = obs.NewCounter("eval.trials_established")
	mAttempts         = obs.NewCounter("eval.attempts")
)
