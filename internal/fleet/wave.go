package fleet

import (
	"time"

	"geneva/internal/apps"
	"geneva/internal/eval"
	"geneva/internal/selector"
)

// residualLedger maps a residual-censorship server key to the longest
// remaining window any cell of one country reported at the last wave
// barrier.
type residualLedger map[string]time.Duration

// residualExport is one residual window a cell's censor exported at a
// wave's end.
type residualExport struct {
	key       string
	remaining time.Duration
}

// inflight is one connection attempt awaiting settlement in a wave.
type inflight struct {
	idx       int // the connection's index in the cell
	app       *apps.Script
	connectAt time.Duration // virtual time the attempt's SYN left
	arm       int           // portfolio arm serving the attempt (-1 = none)
}

// runWave drives one wave of the cell to completion: advance the wave gap,
// plant ledger windows into the censor, start every connection of the wave,
// drain and retry until settled, then export the censor's live residual
// windows for the barrier to fold. A cell runs waves 0 to waves()-1, one
// after another; later waves are skipped entirely (its clock does not
// advance — the cell's run is over).
func (c *cell) runWave(w int, ledger residualLedger) {
	if w >= c.waves() {
		return
	}
	if w > 0 {
		c.Net.Clock.Advance(c.wl.WaveGap)
	}

	// Apply the censor shift once, at the start of its wave. Purely a
	// constant re-tune (no randomness, no flow state), so it is identical
	// at any worker width.
	if w == c.wl.Shift.AtWave && c.wl.Shift.Enabled() && c.shifter != nil &&
		(c.wl.Shift.Country == "" || c.wl.Shift.Country == c.plan.country) {
		c.shifter.ShiftParams(c.wl.Shift.Params)
	}

	// Seed the country ledger's windows that survive the gap. The expiry
	// reconstruction (now + remaining - gap) makes re-seeding a cell's own
	// exports the exact expiry it already holds, so the max-merge inside
	// SeedResidual turns self-seeding into a no-op: a cell's behaviour is
	// unchanged by its own ledger contribution.
	if c.resid != nil && len(ledger) > 0 {
		now := c.Net.Clock.Now()
		for key, remaining := range ledger {
			if remaining <= c.wl.WaveGap {
				continue
			}
			c.resid.SeedResidual(key, now+remaining-c.wl.WaveGap)
			c.res.residualSeeded++
		}
	}

	// Start every connection of the wave, drain the network, then
	// re-attempt failed connections under the reconnect policy (the zero
	// value retries torn-down attempts immediately within eval.TriesFor,
	// RFC 7766 DNS behaviour, same as eval.Run) until the wave settles.
	// Every reconnect is a timer on the cell clock; the network has
	// drained when they are scheduled, so zero-backoff reconnects fire at
	// once, in the order they were scheduled. Every connection of the
	// wave starts now.
	pol := c.wl.Reconnect
	now := c.Net.Clock.Now()
	live := c.live[:0]
	for idx := c.start(w); idx < c.start(w+1); idx++ {
		cn := c.conn(idx)
		sess := c.sessions[cn.protocol]
		m := sess.Exchanges()
		r := &c.res.conns[idx]
		r.planned = m
		app := c.leaseClient(cn.protocol, m)
		arm := c.pullArm(cn)
		c.Clients[cn.slot].Connect(eval.ServerAddr, sess.Port, app)
		r.attempts++
		live = append(live, inflight{idx: idx, app: app, connectAt: now, arm: arm})
	}
	for len(live) > 0 {
		// A reconnect timer names its attempt by its index in c.live,
		// which holds still while the network drains.
		c.live = live
		c.drain()
		n := 0
		for _, f := range live {
			r := &c.res.conns[f.idx]
			cn := c.conn(f.idx)
			if c.selCell != nil && f.arm >= 0 {
				// Credit the settled attempt back to the arm that served
				// it — the control plane's per-attempt reward signal.
				switch {
				case f.app.Succeeded():
					c.selCell.Observe(c.plan.country, cn.protocol, f.arm, selector.Served)
				case f.app.Established():
					c.selCell.Observe(c.plan.country, cn.protocol, f.arm, selector.TornDown)
				default:
					c.selCell.Observe(c.plan.country, cn.protocol, f.arm, selector.Unestablished)
				}
			}
			r.established = r.established || f.app.Established()
			r.served += f.app.Served()
			if f.app.Established() && f.app.LastProgressAt() > f.app.EstablishedAt() {
				// The attempt visibly worked from its SYN until the last
				// verified byte landed.
				r.uptime += f.app.LastProgressAt() - f.connectAt
			}
			if r.attempts == 1 {
				// The first attempt settles before any reconnect starts.
				r.firstSuccess = f.app.Succeeded()
			}
			budget := eval.TriesFor(cn.protocol)
			if pol.MaxAttempts > 0 {
				budget = pol.MaxAttempts
			}
			retryable := f.app.Reset() || (pol.RetryAll && !f.app.Succeeded())
			if !f.app.Succeeded() && retryable && r.attempts < budget {
				// Reconnect with a script carrying only the exchanges still
				// owed: whole exchanges already served stay served.
				app := c.leaseClient(cn.protocol, r.planned-r.served)
				arm := c.pullArm(cn) // a reconnect is a fresh pull
				r.attempts++
				c.Net.AfterTimer(pol.Backoff, (*reconnect)(c), uint64(n))
				at := c.Net.Clock.Now() + pol.Backoff
				live[n] = inflight{idx: f.idx, app: app, connectAt: at, arm: arm}
				n++
			} else {
				// Settled for good. The session succeeded if every planned
				// exchange was served, whether on the first attempt or
				// across reconnects.
				r.success = r.served >= r.planned
				r.lifetime = c.Net.Clock.Now() - now
				if span := time.Duration(r.planned-1) * c.wl.RequestGap; r.lifetime < span {
					// A give-up-early policy doesn't shrink the denominator:
					// the user wanted service across the whole planned span.
					r.lifetime = span
				}
			}
			// The settled attempt's flow can never receive another packet:
			// client ports only move forward, and the wave drained to
			// quiescence before settlement was read.
			c.Scripts.Release(f.app)
		}
		live = live[:n]
	}
	c.live = live[:0]

	// Every connection of the wave has settled, so no server-side script
	// can see another byte; reclaim the leases for the next wave.
	c.ReleaseLeased()

	if c.resid != nil {
		now := c.Net.Clock.Now()
		c.resid.ExportResidual(now, c.publish)
	}
}

// reconnect is a cell as the target of its reconnect timers: the argument
// is the attempt's index in c.live.
type reconnect cell

func (r *reconnect) Fire(i uint64) {
	c := (*cell)(r)
	f := &c.live[i]
	cn := c.conn(f.idx)
	c.Clients[cn.slot].Connect(eval.ServerAddr, c.sessions[cn.protocol].Port, f.app)
}

// exportResidual records one residual window the cell's censor exports at
// a wave's end; the barrier keeps the longest per key. The cell binds it
// to c.publish once, when it is first built, so a wave's export allocates
// no closure.
func (c *cell) exportResidual(key string, remaining time.Duration) {
	c.exports = append(c.exports, residualExport{key, remaining})
	c.res.residualPublished++
}
