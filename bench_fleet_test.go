// BenchmarkFleet is the deployment-harness throughput benchmark behind
// make bench-fleet / BENCH_fleet.json: a 10^5-connection mixed-country,
// mixed-protocol workload served at a ladder of worker widths. The reported
// conns/s metric is connections served per wall-clock second; comparing the
// ladder rungs shows how cell-level parallelism scales
// (near-linear on a multi-core host; on a single-core host the ladder is
// flat and CI only records the ratio, it does not gate on it). The
// FleetResult itself is identical at every rung (TestFleetDeterminism), so
// only the timing moves.
//
// A 10^6-connection smoke rung exists behind GENEVA_FLEET_SMOKE=1 — it is
// too slow (and too memory-hungry: ~2000 live cells) for the default run,
// but proves the harness holds its per-connection alloc budget one order of
// magnitude up. See EXPERIMENTS.md for the recipe.
package geneva

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// fleetBenchWorkload is the 10^5-connection shape: 4 censored countries ×
// 3 protocols, 16 clients per cell × 32 waves, i.e. 192 cells serving ~520
// connections each. Cell setup cost is amortized over enough waves that the
// steady-state wave loop dominates, which is what the rungs compare.
func fleetBenchWorkload() Deployment {
	return Deployment{
		Countries:      []string{China, India, Iran, Kazakhstan},
		Protocols:      []string{"http", "https", "dns"},
		Connections:    100_000,
		ClientsPerCell: 16,
		WavesPerCell:   32,
		Seed:           1,
	}
}

// fleetLongHorizonWorkload is the long-horizon rung's shape: the same
// country × protocol mix, but every connection is a keep-alive session of 3
// exchanges spaced 40 s of virtual time apart, reconnecting with backoff
// after any failure. Fewer connections than the one-shot ladder — each one
// carries ~3× the exchanges plus reconnect attempts — so the rung costs
// about as much wall-clock as a ladder rung while exercising the session
// machinery (delayed sends, tail sessions, backoff timers) at scale.
func fleetLongHorizonWorkload() Deployment {
	d := fleetBenchWorkload()
	d.Connections = 50_000
	d.SessionRequests = 3
	d.RequestGap = 40 * time.Second
	d.Reconnect = ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true}
	return d
}

// fleetSelectionWorkload is the control-plane rung's shape: the one-shot
// ladder workload with a three-strategy portfolio raced by the epsilon-greedy
// bandit. Comparing its allocs/op against workers=8 bounds the
// per-connection cost of online selection (the ≤ +2 allocs/conn budget that
// TestFleetAllocBudget enforces exactly).
func fleetSelectionWorkload() Deployment {
	d := fleetBenchWorkload()
	p, err := NewPortfolio(Strategy1.DSL, Strategy2.DSL, Strategy11.DSL)
	if err != nil {
		panic(err)
	}
	d.Portfolio = p
	d.Selection = Selection{Policy: EpsilonGreedy}
	return d
}

func BenchmarkFleet(b *testing.B) {
	base := fleetBenchWorkload()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runFleetRung(b, base, workers)
		})
	}
	b.Run("longhorizon/workers=8", func(b *testing.B) {
		runFleetRung(b, fleetLongHorizonWorkload(), 8)
	})
	b.Run("selection/workers=8", func(b *testing.B) {
		runFleetRung(b, fleetSelectionWorkload(), 8)
	})
	if os.Getenv("GENEVA_FLEET_SMOKE") != "" {
		d := base
		d.Connections = 1_000_000
		b.Run("smoke-1e6/workers=8", func(b *testing.B) {
			runFleetRung(b, d, 8)
		})
	}
}

func runFleetRung(b *testing.B, d Deployment, workers int) {
	d.Workers = workers
	// One untimed warm-up run: the global pools (rng, router leases) and
	// the heap size ramp up on the first fleet of the process, and without
	// this the first ladder rung eats that cost and fakes a scaling ratio
	// even on a single core. The ladder compares worker scheduling only.
	if _, err := RunDeployment(d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// int64 so the 10^6 smoke rung at high b.N cannot overflow the served
	// counter on 32-bit hosts, and so conns/s stays exact at scale.
	var conns int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunDeployment(d)
		if err != nil {
			b.Fatal(err)
		}
		conns += int64(res.Connections)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(conns)/secs, "conns/s")
	}
}
