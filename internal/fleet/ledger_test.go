package fleet

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"geneva/internal/allocs"
	"geneva/internal/eval"
	"geneva/internal/obs"
	"geneva/internal/race"
	"geneva/internal/selector"
)

// fleetSnapshot runs a workload with metrics on and returns the JSON-encoded
// Result plus the full counter snapshot, so property tests can assert that
// both the structured result and every instrument are invariant under a
// scheduling change.
func fleetSnapshot(t *testing.T, wl Workload) (string, map[string]uint64) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	obs.Reset()
	defer func() {
		obs.Reset()
		obs.SetEnabled(prev)
	}()
	r, err := Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), obs.Take().Counters
}

// TestFleetResidualLedgerProperty is the property test for the one piece of
// genuinely cross-connection censor state the fleet's cells share: the
// GFW's ~90s residual-censorship windows.
//
// Property 1 (window arithmetic): cross-wave residual state fires iff the
// wave gap lands inside the residual window. With WaveGap shorter than the
// 90s window the barrier ledger must seed windows into the next wave
// (fleet.residual_ledger_seeded > 0) and censor.gfw.http.residual_hits must
// exceed the long-gap run; with WaveGap beyond the window the ledger must
// seed nothing and stay provably empty.
//
// Property 2 (worker invariance): the totals are identical whether the
// affected cells run on one worker or many — the whole point of routing
// residual state through the deterministic max-merge at the wave barrier
// instead of letting concurrent cells race on it.
func TestFleetResidualLedgerProperty(t *testing.T) {
	base := Workload{
		Countries:   []string{eval.CountryChina},
		Protocols:   []string{"http"},
		Connections: 80, // several cells' worth, so windows cross cell lines
		Workers:     1,
		Seed:        42,
	}
	run := func(gap time.Duration, workers int) (string, map[string]uint64) {
		wl := base
		wl.WaveGap = gap
		wl.Workers = workers
		return fleetSnapshot(t, wl)
	}

	const inside = 30 * time.Second   // < 90s residual window
	const outside = 120 * time.Second // > 90s residual window

	_, short := run(inside, 1)
	_, long := run(outside, 1)

	if short["fleet.residual_ledger_seeded"] == 0 {
		t.Error("WaveGap=30s inside the 90s residual window, but the barrier ledger seeded nothing")
	}
	if long["fleet.residual_ledger_seeded"] != 0 {
		t.Errorf("WaveGap=120s outlives the 90s residual window, but the ledger seeded %d windows",
			long["fleet.residual_ledger_seeded"])
	}
	if long["fleet.residual_windows_published"] == 0 {
		t.Error("cells censored traffic but published no residual windows at the barrier")
	}
	if s, l := short["censor.gfw.http.residual_hits"], long["censor.gfw.http.residual_hits"]; s <= l {
		t.Errorf("residual hits: short-gap %d <= long-gap %d; cross-wave residual state never fired", s, l)
	}

	// Worker invariance, asserted at the gap where the ledger is live (the
	// hard case: residual windows really flow between cells here).
	wantRes, wantCtrs := run(inside, 1)
	for _, workers := range []int{2, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		gotRes, gotCtrs := run(inside, workers)
		if gotRes != wantRes {
			t.Errorf("%s: Result diverged from workers=1 under live residual ledger:\n%s\nvs\n%s",
				name, gotRes, wantRes)
		}
		for k, want := range wantCtrs {
			if got := gotCtrs[k]; got != want {
				t.Errorf("%s: counter %s = %d, want %d", name, k, got, want)
			}
		}
		if len(gotCtrs) != len(wantCtrs) {
			t.Errorf("%s: snapshot has %d counters, want %d", name, len(gotCtrs), len(wantCtrs))
		}
	}

	// Property 3 (reconnect × ledger): keep-alive sessions with reconnect
	// churn refresh residual windows deep into each wave (every teardown of
	// a reconnecting client re-poisons the server key), so the reconnect
	// workload is the adversarial case for barrier bookkeeping. The window
	// arithmetic must still hold — a wave gap inside the window seeds the
	// ledger, one beyond it provably doesn't — and the totals must stay
	// invariant at every worker width.
	churn := base
	churn.SessionRequests = 3
	churn.RequestGap = 40 * time.Second
	churn.Reconnect = ReconnectPolicy{MaxAttempts: 3, Backoff: 20 * time.Second, RetryAll: true}
	runChurn := func(gap time.Duration, workers int) (string, map[string]uint64) {
		wl := churn
		wl.WaveGap = gap
		wl.Workers = workers
		return fleetSnapshot(t, wl)
	}
	churnShortRes, churnShort := runChurn(inside, 1)
	_, churnLong := runChurn(outside, 1)
	if churnShort["fleet.residual_ledger_seeded"] == 0 {
		t.Error("reconnect churn at WaveGap=30s seeded no ledger windows")
	}
	if churnLong["fleet.residual_ledger_seeded"] != 0 {
		t.Errorf("reconnect churn at WaveGap=120s seeded %d windows, want 0",
			churnLong["fleet.residual_ledger_seeded"])
	}
	var churnShortResult Result
	if err := json.Unmarshal([]byte(churnShortRes), &churnShortResult); err != nil {
		t.Fatal(err)
	}
	if churnShortResult.PerCountry[eval.CountryChina].Reconnects == 0 {
		t.Error("reconnect-churn workload never reconnected; property 3 exercised nothing")
	}
	churnRes, churnCtrs := runChurn(inside, 1)
	for _, workers := range []int{2, 8} {
		name := fmt.Sprintf("churn/workers=%d", workers)
		gotRes, gotCtrs := runChurn(inside, workers)
		if gotRes != churnRes {
			t.Errorf("%s: Result diverged from workers=1 under reconnect churn:\n%s\nvs\n%s",
				name, gotRes, churnRes)
		}
		for k, want := range churnCtrs {
			if got := gotCtrs[k]; got != want {
				t.Errorf("%s: counter %s = %d, want %d", name, k, got, want)
			}
		}
	}
}

// TestFleetAllocBudget pins the per-connection allocation budget of the
// fleet hot path, the satellite tripwire mirroring eval's
// TestTrialAllocBudget. The pre-cell harness ran at ~32 allocs per
// connection on this shape, the pooled cell/wave loop at ~21, and the
// parse-once/TCB-recycling pass at ~16 (15.99–16.20 across seed bases), the
// GFW's single flow table at 14.39, receiving without copying the stream at
// 12.06, then 11.72, leasing every script from one freelist of template
// copies at 10.76, resetting pooled cells in place at 2.46, where a warm
// run builds nothing per cell, at 1.27 once censors injected into their
// own buffers, at 0.78–0.82 once option removal kept pooled packets'
// option buffers, at 0.50–0.54 once the plan stopped storing a record
// per connection, and at 0.39–0.43 once reconnect timers targeted their
// cell and residual exports reused one bound callback. Each rung's mean is
// exact (allocs.Mean over five runs after two warm-ups, read at five seed
// bases), and its budget is the upper reading plus 10%, rounded up to one
// decimal, so one new allocation every few connections fails it.
// Metrics must be off: obs's zero-cost-when-disabled guarantee is part of
// what is being enforced.
func TestFleetAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled; a prior test leaked obs state")
	}
	wl := Workload{
		Countries:   []string{eval.CountryChina, eval.CountryIndia, eval.CountryIran, eval.CountryKazakhstan},
		Protocols:   []string{"http", "dns", "smtp"},
		Connections: 500,
		Workers:     1,
		Seed:        1,
	}
	seed := int64(1)
	mean := allocs.Mean(2, 5, func() {
		seed++
		w := wl
		w.Seed = seed
		if _, err := Run(w); err != nil {
			t.Fatal(err)
		}
	})
	perConn := mean / float64(wl.Connections)
	t.Logf("one-shot: %.4f allocs/conn", perConn)
	const budget = 0.5
	if perConn > budget {
		t.Errorf("fleet allocates %.1f objects per connection (%.0f total), budget is %.1f/conn (pre-cell baseline was ~32)",
			perConn, mean, budget)
	}
	perConnOneShot := perConn

	// The keep-alive + reconnect shape carries extra per-connection cost —
	// delayed-send timers per exchange, tail-session scripts and reconnect
	// attempts — that the script freelist must still bound. 26.33/conn with
	// the GFW's single flow table, 21.01 without received-byte copies, then
	// 20.45, 19.04 with one freelist of template copies, 7.31 on pooled
	// cells, 4.67 with censors injecting into their own buffers,
	// 3.88–3.95 with option buffers kept, 3.59–3.67 with the plan derived
	// from each connection's index and 0.60–0.66 once delayed sends,
	// retransmits and reconnects armed timers on their own long-lived
	// objects instead of closures; a leak per exchange or per reconnect
	// fails the budget.
	ka := wl
	ka.SessionRequests = 3
	ka.RequestGap = 40 * time.Second
	ka.Reconnect = ReconnectPolicy{MaxAttempts: 3, Backoff: 20 * time.Second, RetryAll: true}
	mean = allocs.Mean(2, 5, func() {
		seed++
		w := ka
		w.Seed = seed
		if _, err := Run(w); err != nil {
			t.Fatal(err)
		}
	})
	perConn = mean / float64(ka.Connections)
	t.Logf("keep-alive: %.4f allocs/conn", perConn)
	const kaBudget = 0.8
	if perConn > kaBudget {
		t.Errorf("keep-alive fleet allocates %.1f objects per connection (%.0f total), budget is %.1f/conn",
			perConn, mean, kaBudget)
	}

	// The online-selection rung: the same one-shot shape with a
	// three-strategy portfolio raced by the epsilon-greedy bandit. The
	// control plane's whole steady-state cost is integer delta accumulation
	// plus a sandbox pin per attempt — sandbox-owned engines, reused
	// scratch. 3.02/conn on pooled cells, 2.75 once cells owned their arm
	// engines, 1.41 with censors injecting into their own buffers,
	// 1.12–1.13 with option buffers kept, 0.83–0.84 with the plan derived
	// from each connection's index and 0.69–0.73 with closure-free timers
	// and residual exports; the budget is that plus 10%, and never above
	// the pinned cost plus 1.
	sel := wl
	sel.Portfolio = eval.DefaultPortfolio()
	sel.Selection = selector.Selection{Policy: selector.EpsilonGreedy}
	const selBudget = 0.8
	pinnedPerConn := perConnOneShot
	selMean := allocs.Mean(2, 5, func() {
		seed++
		w := sel
		w.Seed = seed
		if _, err := Run(w); err != nil {
			t.Fatal(err)
		}
	})
	selPerConn := selMean / float64(sel.Connections)
	t.Logf("selection: %.4f allocs/conn", selPerConn)
	if selPerConn > min(selBudget, pinnedPerConn+1) {
		t.Errorf("selection fleet allocates %.2f objects per connection, pinned path costs %.2f; budget is min(%.1f, pinned+1)",
			selPerConn, pinnedPerConn, selBudget)
	}
}
