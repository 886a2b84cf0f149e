package gfw

import (
	"testing"
	"time"
)

// TestResidualExportSeed covers the ResidualCarrier contract the fleet's
// barrier ledger depends on: exports are relative remaining
// durations, seeds max-merge (never shorten a live window), and a box whose
// parameters carry no residual censorship silently ignores seeds.
func TestResidualExportSeed(t *testing.T) {
	p := httpParamsAllOn()
	p.Residual = 90 * time.Second
	g := deterministic(p)

	export := func(now time.Duration) map[string]time.Duration {
		got := map[string]time.Duration{}
		g.ExportResidual(now, func(key string, remaining time.Duration) {
			got[key] = remaining
		})
		return got
	}

	if got := export(0); len(got) != 0 {
		t.Fatalf("fresh box exported %v, want nothing", got)
	}

	g.SeedResidual("198.51.100.9:80", 90*time.Second)
	if got := export(30 * time.Second); got["198.51.100.9:80"] != 60*time.Second {
		t.Errorf("export at t=30s: got %v, want 60s remaining", got)
	}

	// Max-merge: a shorter window must not clip the live one...
	g.SeedResidual("198.51.100.9:80", 50*time.Second)
	if got := export(30 * time.Second); got["198.51.100.9:80"] != 60*time.Second {
		t.Errorf("shorter seed clipped the window: got %v, want 60s remaining", got)
	}
	// ...and a longer one extends it.
	g.SeedResidual("198.51.100.9:80", 2*time.Minute)
	if got := export(30 * time.Second); got["198.51.100.9:80"] != 90*time.Second {
		t.Errorf("longer seed did not extend the window: got %v, want 90s remaining", got)
	}

	// Expired windows are not exported.
	if got := export(3 * time.Minute); len(got) != 0 {
		t.Errorf("export after expiry: got %v, want nothing", got)
	}

	// Boxes with Residual disabled must ignore seeds entirely.
	off := deterministic(httpParamsAllOff())
	off.SeedResidual("198.51.100.9:80", time.Hour)
	got := map[string]time.Duration{}
	off.ExportResidual(0, func(key string, remaining time.Duration) { got[key] = remaining })
	if len(got) != 0 {
		t.Errorf("residual-disabled box accepted a seed: %v", got)
	}
}

// TestResidualSeedOrderInvariant is the algebraic property the fleet's
// determinism proof leans on: folding the same set of windows in any order
// yields the same poisoned state, because seeding is a max-merge
// (commutative, associative, idempotent).
func TestResidualSeedOrderInvariant(t *testing.T) {
	p := httpParamsAllOn()
	p.Residual = 90 * time.Second
	windows := []struct {
		key string
		exp time.Duration
	}{
		{"198.51.100.9:80", 40 * time.Second},
		{"198.51.100.9:80", 90 * time.Second},
		{"198.51.100.9:80", 65 * time.Second},
		{"198.51.100.10:80", 30 * time.Second},
	}
	snapshot := func(order []int) map[string]time.Duration {
		g := deterministic(p)
		for _, i := range order {
			g.SeedResidual(windows[i].key, windows[i].exp)
		}
		got := map[string]time.Duration{}
		g.ExportResidual(0, func(key string, remaining time.Duration) { got[key] = remaining })
		return got
	}
	want := snapshot([]int{0, 1, 2, 3})
	if want["198.51.100.9:80"] != 90*time.Second || want["198.51.100.10:80"] != 30*time.Second {
		t.Fatalf("unexpected merged state: %v", want)
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 0, 3, 2}, {2, 3, 0, 1}, {1, 1, 0, 2, 3, 3}} {
		got := snapshot(order)
		if len(got) != len(want) {
			t.Fatalf("order %v: %v, want %v", order, got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("order %v: key %s = %v, want %v", order, k, got[k], v)
			}
		}
	}
}
