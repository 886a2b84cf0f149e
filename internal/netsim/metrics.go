package netsim

import "geneva/internal/obs"

// Delivery-outcome counters. Every packet the network accepts reaches
// exactly one terminal counter (delivered, lost, expired, no-route, or
// dropped in-path); the others count side events. The event kinds in
// trace.go own the counters they bump, and FuzzImpairments checks the
// balance from a trace. All increments sit behind the obs enabled gate, so
// the fitness-trial hot path pays one atomic load per site when metrics are
// off.
var (
	mDelivered     = obs.NewCounter("netsim.delivered")
	mLost          = obs.NewCounter("netsim.lost_impairment")
	mDuplicated    = obs.NewCounter("netsim.duplicated_impairment")
	mReordered     = obs.NewCounter("netsim.reordered_impairment")
	mExpiredTTL    = obs.NewCounter("netsim.expired_ttl")
	mNoRoute       = obs.NewCounter("netsim.no_route")
	mDroppedInPath = obs.NewCounter("netsim.dropped_inpath")
	mInjected      = obs.NewCounter("netsim.injected_by_censor")
	mRecycled      = obs.NewCounter("netsim.packets_recycled")
	mTimersFired   = obs.NewCounter("netsim.timers_fired")
)
