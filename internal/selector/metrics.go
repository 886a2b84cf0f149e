package selector

import "geneva/internal/obs"

// Selector counters. All three are incremented only during the
// single-threaded wave-barrier fold (State.Merge), from integer deltas
// whose values are pure functions of the seeds and the plan — so like
// every other instrument in the tree they are worker-width invariant.
var (
	// mPulls counts strategy selections (one per connection attempt
	// routed through the control plane).
	mPulls = obs.NewCounter("selector.pulls")
	// mRewards counts served attempts credited back to their arm.
	mRewards = obs.NewCounter("selector.rewards")
	// mFallbacks counts collapse-quarantine events: an incumbent arm's
	// windowed success rate cratered and it was benched for re-exploration.
	mFallbacks = obs.NewCounter("selector.fallbacks")
)
