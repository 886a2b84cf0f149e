package eval

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/race"
	"geneva/internal/strategies"
)

// traceText renders a trace entry-by-entry — time, direction, note, and the
// full packet — so two traces compare byte-for-byte.
func traceText(tr *netsim.Trace) string {
	var b strings.Builder
	for _, e := range tr.Entries {
		fmt.Fprintf(&b, "%v %v %q %s\n", e.Time, e.Dir, e.Note, e.Pkt.String())
	}
	return b.String()
}

// TestRecyclingBitIdentical is the pooling safety referee: the same trial
// with packet recycling on and off must produce the same outcome, the same
// censor activity, and a byte-identical packet trace. Any divergence means
// a recycled buffer was still referenced somewhere — exactly the bug class
// the pool's ownership contract exists to prevent.
func TestRecyclingBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		strategy int // 0 = no evasion
		impaired bool
	}{
		{"no-evasion", 0, false},
		{"tcb-teardown", 1, false},
		{"syn-ack-burst", 6, false},
		{"window-reduction", 8, false},
		{"tcb-teardown-lossy", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				cfg := Config{
					Country:   CountryChina,
					Session:   SessionFor(CountryChina, "http", true),
					Tries:     TriesFor("http"),
					Seed:      seed,
					WithTrace: true,
				}
				if tc.strategy > 0 {
					s, ok := strategies.ByNumber(tc.strategy)
					if !ok {
						t.Fatalf("no strategy %d", tc.strategy)
					}
					cfg.Strategy = s.Parse()
				}
				if tc.impaired {
					cfg.Impairments = netsim.Symmetric(netsim.Profile{
						Loss: 0.05, Duplicate: 0.05, Jitter: 2 * time.Millisecond,
					})
				}

				rigOn := NewRig(cfg) // NewRig enables recycling
				rigOff := NewRig(cfg)
				rigOff.Net.RecyclePackets = false

				appOn := rigOn.Attempt()
				appOff := rigOff.Attempt()

				if appOn.Succeeded() != appOff.Succeeded() ||
					appOn.Established() != appOff.Established() {
					t.Fatalf("seed %d: outcome diverges with recycling: on=(%v,%v) off=(%v,%v)",
						seed, appOn.Succeeded(), appOn.Established(),
						appOff.Succeeded(), appOff.Established())
				}
				if rigOn.CensorEvents() != rigOff.CensorEvents() {
					t.Fatalf("seed %d: censor events diverge: on=%d off=%d",
						seed, rigOn.CensorEvents(), rigOff.CensorEvents())
				}
				on, off := traceText(rigOn.Net.Trace), traceText(rigOff.Net.Trace)
				if on != off {
					t.Fatalf("seed %d: traces diverge with recycling\n--- recycling on ---\n%s--- recycling off ---\n%s",
						seed, on, off)
				}
			}
		})
	}
}

// TestRingRecorderMatchesTrace pins the recorder plumbing: a RingRecorder
// big enough to hold everything observes exactly the entries the full
// Trace records, clone-isolated from the recycled originals.
func TestRingRecorderMatchesTrace(t *testing.T) {
	s1, _ := strategies.ByNumber(1)
	cfg := Config{
		Country:   CountryChina,
		Session:   SessionFor(CountryChina, "http", true),
		Strategy:  s1.Parse(),
		Seed:      7,
		WithTrace: true,
	}
	rig := NewRig(cfg)
	ring := netsim.NewRingRecorder(4096)
	rig.Net.Recorder = ring
	rig.Attempt()

	full := rig.Net.Trace.Entries
	got := ring.Entries()
	if len(full) == 0 {
		t.Fatal("trace recorded nothing")
	}
	if len(got) != len(full) {
		t.Fatalf("ring recorded %d entries, trace %d", len(got), len(full))
	}
	for i := range full {
		a, b := full[i], got[i]
		if a.Time != b.Time || a.Dir != b.Dir || a.Note != b.Note ||
			a.Pkt.String() != b.Pkt.String() {
			t.Fatalf("entry %d differs:\ntrace: %v %v %q %s\nring:  %v %v %q %s",
				i, a.Time, a.Dir, a.Note, a.Pkt.String(),
				b.Time, b.Dir, b.Note, b.Pkt.String())
		}
	}
}

// TestRingRecorderBounded pins the ring semantics: capacity n keeps the
// newest n entries, oldest-first.
func TestRingRecorderBounded(t *testing.T) {
	s1, _ := strategies.ByNumber(1)
	cfg := Config{
		Country:   CountryChina,
		Session:   SessionFor(CountryChina, "http", true),
		Strategy:  s1.Parse(),
		Seed:      7,
		WithTrace: true,
	}
	rig := NewRig(cfg)
	const n = 5
	ring := netsim.NewRingRecorder(n)
	rig.Net.Recorder = ring
	rig.Attempt()

	full := rig.Net.Trace.Entries
	got := ring.Entries()
	if len(full) <= n {
		t.Skipf("trial produced only %d entries; need more than %d", len(full), n)
	}
	if len(got) != n {
		t.Fatalf("ring holds %d entries, want %d", len(got), n)
	}
	tail := full[len(full)-n:]
	for i := range tail {
		if tail[i].Note != got[i].Note || tail[i].Pkt.String() != got[i].Pkt.String() {
			t.Fatalf("ring entry %d is not the trace tail: %q vs %q", i, got[i].Note, tail[i].Note)
		}
	}
}

// TestTrialAllocBudget pins the end-to-end per-trial allocation budget.
// The seed PR measured ~151 allocs per China/http trial; the pooled hot
// path runs at 50, four fewer than when a Result still carried its live
// rig and censor. The budget is that plus 10% for cross-seed variance,
// floored, so a handful of new allocations per trial fails it. It runs with
// metrics explicitly disabled: the obs layer's zero-cost-when-off guarantee
// is part of what this tripwire enforces.
func TestTrialAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled; a prior test leaked obs state")
	}
	s1, _ := strategies.ByNumber(1)
	st := s1.Parse()
	session := SessionFor(CountryChina, "http", true)
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		Run(Config{
			Country:  CountryChina,
			Session:  session,
			Strategy: st,
			Tries:    1,
			Seed:     seed,
		})
	})
	t.Logf("%.0f allocs per trial", allocs)
	const budget = 55
	if allocs > budget {
		t.Errorf("full trial allocates %.0f objects/op, budget is %d (seed baseline was ~151)",
			allocs, budget)
	}
}

// TestAllocBudgetFitnessSample pins the cost of one computed fitness
// evaluation: a Kazakhstan/http strategy with a corrupt tamper, so its
// engine stream is drawn from, scored over 10 trials with the cache off.
// Before trial generators were pooled and lazily seeded, a sample took 456
// allocations and ~267 KB, ~217 KB of it four fresh math/rand tables per
// trial; now it takes 388 and ~51 KB. The byte bound fails if even one
// stream per trial goes back to allocating its table.
func TestAllocBudgetFitnessSample(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled; a prior test leaked obs state")
	}
	s3, _ := strategies.ByNumber(3)
	batch := []*core.Strategy{s3.Parse()}
	ev := NewEvaluator(CountryKazakhstan, "http", 10, 1)
	ev.NoCache = true
	// AllocsPerRun pins GOMAXPROCS to 1, so the trials run sequentially on
	// this goroutine; the byte count below does the same.
	allocs := testing.AllocsPerRun(20, func() { ev.BatchFitness(batch) })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const samples = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < samples; i++ {
		ev.BatchFitness(batch)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / samples
	t.Logf("%.0f allocs, %.0f bytes per sample", allocs, bytes)
	const budget, bytesBudget = 425, 64 << 10
	if allocs > budget {
		t.Errorf("a fitness sample allocates %.0f objects, budget is %d", allocs, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("a fitness sample allocates %.0f bytes, budget is %d", bytes, bytesBudget)
	}
}
