package fleet

import "geneva/internal/obs"

// Fleet counters for the per-cell scheduling tallies the Result does not
// carry; every connection, outcome and per-country total lives only in the
// Result. record publishes them once per run. Each cell's contribution is a
// pure function of its seeds and the merged ledger, so every counter here is
// worker-width invariant.
var (
	mWaves = obs.NewCounter("fleet.waves")
	// mResidualPublished counts residual-censorship windows cells exported
	// into their country's ledger at wave barriers; mResidualSeeded counts
	// windows the ledger planted into cells at the next wave's start (only
	// windows outliving the wave gap are planted, so with the default gap
	// both stay at published-only/zero).
	mResidualPublished = obs.NewCounter("fleet.residual_windows_published")
	mResidualSeeded    = obs.NewCounter("fleet.residual_ledger_seeded")
)
