package fleet

import (
	"time"

	"geneva/internal/selector"
)

// connResult is one connection's outcome.
type connResult struct {
	success     bool
	established bool
	attempts    int

	// Long-horizon accounting.
	planned      int           // exchanges the plan asked this connection to carry
	served       int           // exchanges that arrived intact, across all attempts
	firstSuccess bool          // the FIRST attempt served the whole session
	uptime       time.Duration // Σ per-attempt SYN → last verified byte
	lifetime     time.Duration // settle − start, floored at the planned span
}

// cellResult is one cell's outcome, connection by connection in plan order.
type cellResult struct {
	conns []connResult

	// Residual-ledger traffic: windows the cell exported at wave barriers
	// and ledger windows planted into it at wave starts.
	residualPublished int
	residualSeeded    int
}

// aggregate folds every settled connection of the run's cells, once, into
// its country's CountryStats and the fleet outcome mix; the fleet totals
// are then sums over PerCountry.
func aggregate(cells []*cell, ctl control) Result {
	out := Result{
		Cells:      len(cells),
		PerCountry: map[string]CountryStats{},
		Outcomes:   map[string]int{"served": 0, "torn_down": 0, "never_established": 0},
	}
	for _, cl := range cells {
		cs := out.PerCountry[cl.plan.country]
		cs.CensorEvents += cl.CensorEvents()
		for i, c := range cl.res.conns {
			cn := cl.conn(i)
			cs.Connections++
			cs.RequestsAttempted += c.planned
			cs.RequestsServed += c.served
			cs.UptimeVirtual += c.uptime
			cs.LifetimeVirtual += c.lifetime
			if c.firstSuccess {
				cs.FirstAttemptSucceeded++
			}
			if reconnects := c.attempts - 1; reconnects > 0 {
				cs.Reconnects += reconnects
				if c.success && !c.firstSuccess {
					cs.Recoveries++
					cs.ReconnectsToRecover += reconnects
				}
			}
			switch {
			case c.success:
				cs.Succeeded++
				out.Outcomes["served"]++
			case c.established:
				out.Outcomes["torn_down"]++
			default:
				out.Outcomes["never_established"]++
			}
			switch {
			case cn.unprotected:
				cs.Unprotected++
				if c.success {
					cs.UnprotectedSucceeded++
				}
			case cl.contested(cn.wave):
				cs.Contested++
				if c.success {
					cs.ContestedSucceeded++
				}
			default:
				cs.Routed++
				if c.success {
					cs.RoutedSucceeded++
				}
			}
		}
		out.PerCountry[cl.plan.country] = cs
	}
	for country, cs := range out.PerCountry {
		out.Connections += cs.Connections
		out.Succeeded += cs.Succeeded
		out.RequestsAttempted += cs.RequestsAttempted
		out.RequestsServed += cs.RequestsServed
		out.UptimeVirtual += cs.UptimeVirtual
		out.LifetimeVirtual += cs.LifetimeVirtual
		if ctl.state == nil {
			continue
		}
		rep := ctl.state.CountryReport(country)
		var pulls uint64
		for _, r := range rep {
			pulls += r.Pulls
		}
		if pulls == 0 {
			continue // unrouted population: the control plane never ran
		}
		cs.Selection = make(map[string]selector.ArmReport, len(rep))
		for i, r := range rep {
			cs.Selection[ctl.portfolio.Name(i)] = r
		}
		out.PerCountry[country] = cs
	}
	if ctl.state != nil {
		out.Fallbacks = int(ctl.state.Fallbacks())
	}
	return out
}

// record publishes the per-cell scheduling tallies the Result does not carry.
func record(cells []*cell) {
	var waves, published, seeded int
	for _, c := range cells {
		waves += c.waves()
		published += c.res.residualPublished
		seeded += c.res.residualSeeded
	}
	mWaves.Add(uint64(waves))
	mResidualPublished.Add(uint64(published))
	mResidualSeeded.Add(uint64(seeded))
}
