package fleet

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"geneva/internal/eval"
)

// TestCellPoolsOrderAndSweep: a rerun of the same plans takes back the
// cell that served each plan; the stack survives one sweep after its last
// use and the next sweep drops it.
func TestCellPoolsOrderAndSweep(t *testing.T) {
	// A collection would sweep the pools under the test.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer emptyCellPools()
	emptyCellPools()

	wl := Workload{
		Countries:      []string{eval.CountryChina, eval.CountryIran},
		Protocols:      []string{"http"},
		Connections:    40,
		ClientsPerCell: 2,
	}.withDefaults()
	plans := plan(wl)
	take := func() []*cell {
		cells := takeCells(len(plans))
		for i, c := range cells {
			c.plan = plans[i] // what reset would set
		}
		return cells
	}
	first := take()
	putCells(first)
	again := take()
	for i := range plans {
		if again[i] != first[i] {
			t.Fatalf("plan %d (%s) took another cell on the rerun", i, plans[i].country)
		}
	}
	putCells(again)

	sweepCellPools()
	if got := len(pooledCells()); got != len(plans) {
		t.Fatalf("after one sweep: %d pooled cells, want %d", got, len(plans))
	}
	sweepCellPools()
	if got := len(pooledCells()); got != 0 {
		t.Fatalf("after two idle sweeps: %d pooled cells, want 0", got)
	}
}

// TestCellPoolsConcurrentRuns: workloads sharing keys run at once, with
// collections sweeping the pool between and during them, and each must
// give the Result it gives alone. After every lone run and after the
// rounds the pool must balance: it holds no cell twice, and every cell it
// holds was wired by a run. Run it under -race.
func TestCellPoolsConcurrentRuns(t *testing.T) {
	defer emptyCellPools()
	base := Workload{
		Countries:       []string{eval.CountryChina, eval.CountryKazakhstan},
		Protocols:       []string{"http", "dns"},
		Connections:     60,
		ClientsPerCell:  3,
		SessionRequests: 2,
		RequestGap:      40 * time.Second,
		Workers:         1,
	}
	var wls []Workload
	for seed := int64(1); seed <= 3; seed++ {
		wl := base
		wl.Seed = seed
		wls = append(wls, wl)
	}
	result := func(wl Workload) string {
		r, err := Run(wl)
		if err != nil {
			t.Error(err)
			return ""
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		return string(b)
	}
	want := make([]string, len(wls))
	for i, wl := range wls {
		want[i] = result(wl)
		checkPoolBalance(t)
	}
	for round := 0; round < 3; round++ {
		got := make([]string, len(wls)+1)
		eval.RunParallel(len(wls)+1, len(wls)+1, func(i int) {
			if i == len(wls) {
				runtime.GC()
				runtime.GC()
				return
			}
			got[i] = result(wls[i])
		})
		for i := range wls {
			if got[i] != want[i] {
				t.Fatalf("round %d: seed %d's Result differs when run beside the others", round, wls[i].Seed)
			}
		}
	}
	checkPoolBalance(t)
}

// checkPoolBalance fails unless the pool holds each cell at most once and
// only cells a run wired.
func checkPoolBalance(t *testing.T) {
	t.Helper()
	seen := map[*cell]bool{}
	for _, c := range pooledCells() {
		if seen[c] {
			t.Fatal("the pool holds a cell twice")
		}
		if c.Net == nil {
			t.Fatal("the pool holds a cell no run wired")
		}
		seen[c] = true
	}
}
