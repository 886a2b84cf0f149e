package fleet

import (
	"geneva/internal/eval"
	"geneva/internal/obs"
)

// Fleet counters, published once per run by record from the finished Result
// and per-cell tallies. Totals are sums of per-connection events whose
// randomness is purely seed-derived, and the concurrency gauge is a
// high-water mark over per-cell virtual-time concurrency, so every
// instrument here is worker-width invariant (the PR-4 metrics discipline).
var (
	mCells         = obs.NewCounter("fleet.cells")
	mWaves         = obs.NewCounter("fleet.waves")
	mConnections   = obs.NewCounter("fleet.connections")
	mServed        = obs.NewCounter("fleet.connections_served")
	mTornDown      = obs.NewCounter("fleet.connections_torn_down")
	mUnestablished = obs.NewCounter("fleet.connections_unestablished")
	mAttempts      = obs.NewCounter("fleet.attempts")
	// mConcurrent is the maximum number of connections in flight at once on
	// any single cell network (virtual time), i.e. the widest wave actually
	// started.
	mConcurrent = obs.NewGauge("fleet.concurrent_connections")
	// mResidualPublished counts residual-censorship windows cells exported
	// into their country's ledger at wave barriers; mResidualSeeded counts
	// windows the ledger planted into cells at the next wave's start (only
	// windows outliving the wave gap are planted, so with the default gap
	// both stay at published-only/zero). Each cell's contribution is a pure
	// function of its seeds and the merged ledger, so both totals are
	// worker-width invariant.
	mResidualPublished = obs.NewCounter("fleet.residual_windows_published")
	mResidualSeeded    = obs.NewCounter("fleet.residual_ledger_seeded")
	// Long-horizon session counters: per-exchange demand and delivery,
	// reconnect churn, and the virtual uptime/lifetime sums (nanoseconds)
	// behind the availability ratio. All are plan- and outcome-derived, so
	// they inherit the same width invariance as the totals above.
	mRequestsAttempted = obs.NewCounter("fleet.requests_attempted")
	mRequestsServed    = obs.NewCounter("fleet.requests_served")
	mReconnects        = obs.NewCounter("fleet.reconnects")
	mRecoveries        = obs.NewCounter("fleet.recoveries")
	mUptimeVirtual     = obs.NewCounter("fleet.uptime_virtual_ns")
	mLifetimeVirtual   = obs.NewCounter("fleet.lifetime_virtual_ns")
)

// Per-country counters, registered statically for every modeled country so
// snapshots keep a stable key set.
var (
	mCountryConns  = map[string]*obs.Counter{}
	mCountryEvaded = map[string]*obs.Counter{}
)

func init() {
	for _, c := range countryMetricNames {
		mCountryConns[c.country] = obs.NewCounter("fleet." + c.label + ".connections")
		mCountryEvaded[c.country] = obs.NewCounter("fleet." + c.label + ".evaded")
	}
}

// countryMetricNames is enumerated from the censor registry: every
// registered country gets a counter pair, with dashes in country keys
// mapped to underscores via the registry's MetricLabel ("india-jio" →
// "fleet.india_jio.*"), plus the uncensored population.
var countryMetricNames = func() []struct{ country, label string } {
	var names []struct{ country, label string }
	for _, d := range eval.Registry() {
		names = append(names, struct{ country, label string }{d.Country, d.MetricLabel})
	}
	return append(names, struct{ country, label string }{"", "uncensored"})
}()
