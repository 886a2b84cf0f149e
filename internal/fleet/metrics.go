package fleet

import "geneva/internal/obs"

// Fleet counters for the per-cell scheduling tallies the Result does not
// carry; every connection, outcome and per-country total lives only in the
// Result. record publishes them once per run. Each cell's contribution is a
// pure function of its seeds and the merged ledger, and the concurrency gauge
// is a high-water mark over per-cell virtual-time concurrency, so every
// instrument here is worker-width invariant.
var (
	mWaves = obs.NewCounter("fleet.waves")
	// mConcurrent is the maximum number of connections in flight at once on
	// any single cell network (virtual time), i.e. the widest wave actually
	// started.
	mConcurrent = obs.NewGauge("fleet.concurrent_connections")
	// mResidualPublished counts residual-censorship windows cells exported
	// into their country's ledger at wave barriers; mResidualSeeded counts
	// windows the ledger planted into cells at the next wave's start (only
	// windows outliving the wave gap are planted, so with the default gap
	// both stay at published-only/zero).
	mResidualPublished = obs.NewCounter("fleet.residual_windows_published")
	mResidualSeeded    = obs.NewCounter("fleet.residual_ledger_seeded")
)
