package geneva

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"geneva/internal/race"
)

// atProcs runs f with GOMAXPROCS set to procs (0 = unchanged) and restores
// the previous setting.
func atProcs(procs int, f func()) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	f()
}

// encodeDeployment runs d at the given scheduling point and returns its
// FleetResult as JSON.
func encodeDeployment(t *testing.T, d Deployment, workers, procs int) string {
	t.Helper()
	d.Workers = workers
	var res FleetResult
	var err error
	atProcs(procs, func() { res, err = RunDeployment(d) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Connections != d.Connections {
		t.Fatalf("workers=%d/procs=%d: served %d connections, want %d",
			workers, procs, res.Connections, d.Connections)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sweepSchedules checks that d's FleetResult is the same at every point of
// a scheduling matrix — the cell worker pool width (Deployment.Workers) ×
// the number of OS threads its goroutines run on (GOMAXPROCS) — and returns
// the single-threaded one. Subtests are labelled "workers=W_shards=P": the
// second label predates cells becoming the only scheduling unit and is kept
// so test IDs stay comparable across history; P is the GOMAXPROCS value.
func sweepSchedules(t *testing.T, prefix string, d Deployment) string {
	want := encodeDeployment(t, d, 1, 1)
	for _, w := range []int{1, 2, 8} {
		for _, p := range []int{1, 2, 8} {
			if w == 1 && p == 1 {
				continue
			}
			t.Run(fmt.Sprintf("%sworkers=%d_shards=%d", prefix, w, p), func(t *testing.T) {
				if got := encodeDeployment(t, d, w, p); got != want {
					t.Errorf("workers=%d/procs=%d diverged from workers=1/procs=1:\n%s\nvs\n%s",
						w, p, got, want)
				}
			})
		}
	}
	return want
}

// TestFleetDeterminism is the tentpole guarantee of the deployment harness:
// the entire FleetResult — totals, per-country breakdown, outcome mix, and
// manifest — must be bit-identical at any worker width and thread count,
// because every cell derives its seeds from its stable index in the
// workload plan, never from scheduling order, and the only cross-cell state
// (the per-country residual-censorship ledger) is folded with an
// order-independent max-merge at the wave barriers. Run under -race in CI
// (make fleet-determinism), the full matrix also proves the wave scheduler
// shares nothing it shouldn't.
func TestFleetDeterminism(t *testing.T) {
	base := Deployment{
		Countries: []string{China, India, IndiaJio, IndiaVodafone, Iran,
			Kazakhstan, Turkmenistan, NoCensor},
		Protocols:   []string{"http", "https", "dns", "smtp"},
		Connections: 128,
		Seed:        1234,
	}
	want := sweepSchedules(t, "", base)
	// The process's own GOMAXPROCS must agree with every explicit setting.
	t.Run("workers=8_procs=auto", func(t *testing.T) {
		if got := encodeDeployment(t, base, 8, 0); got != want {
			t.Errorf("workers=8 at default GOMAXPROCS diverged from workers=1/procs=1:\n%s\nvs\n%s", got, want)
		}
	})
}

// TestFleetDeterminismLongHorizon runs the same scheduling matrix over
// the long-horizon workload shape: keep-alive sessions spanning minutes of
// virtual time, reconnect backoff timers on the cell clocks, and tail
// sessions of varying length. Every one of those is new scheduling surface,
// so the bit-identical guarantee is re-proved on it.
func TestFleetDeterminismLongHorizon(t *testing.T) {
	base := Deployment{
		Countries:       []string{China, IndiaJio, Turkmenistan, NoCensor},
		Protocols:       []string{"http", "https", "dns"},
		Connections:     96,
		SessionRequests: 3,
		RequestGap:      40 * time.Second,
		Reconnect:       ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true},
		Seed:            1234,
	}
	sweepSchedules(t, "", base)
}

// TestFleetDeterminismFullFlowTable drives one China cell past the GFW's
// flow-table bound: 253 clients × 300 waves is 75,900 connections, and the
// flows the deployed strategy desynchronizes are never torn down, so the
// table fills and trims itself. The trim must pick its victims in a fixed
// order, or two runs of the same Deployment serve different counts. It
// takes seconds without the race detector and most of a minute with it, so
// it skips under -race and -short; make fleet-determinism runs it without
// -race.
func TestFleetDeterminismFullFlowTable(t *testing.T) {
	if race.Enabled || testing.Short() {
		t.Skip("a 75,900-connection cell; run without -race and -short")
	}
	d := Deployment{
		Countries:          []string{China},
		Protocols:          []string{"http", "https", "dns"},
		ClientsPerCell:     253,
		UnprotectedPerCell: -1,
		WavesPerCell:       300,
		Connections:        253 * 300,
		Seed:               3,
	}
	if one, two := encodeDeployment(t, d, 1, 0), encodeDeployment(t, d, 2, 0); one != two {
		t.Errorf("workers=2 diverged from workers=1:\n%s\nvs\n%s", two, one)
	}
}
