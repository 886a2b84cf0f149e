package eval

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"geneva/internal/allocs"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/race"
	"geneva/internal/strategies"
)

// traceText renders a trace entry-by-entry — time, direction, event, note,
// and the full packet — so two traces compare byte-for-byte.
func traceText(tr *netsim.Trace) string {
	var b strings.Builder
	for _, e := range tr.Entries {
		fmt.Fprintf(&b, "%v %v %v %q %s\n", e.Time, e.Dir, e.Event, e.Note, e.Pkt.String())
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

// TestTrialAllocBudget pins the end-to-end per-trial allocation budget.
// The seed PR measured ~151 allocs per China/http trial; the pooled hot
// path ran at 50, four fewer than when a Result still carried its live
// rig and censor, then 47 once neither the TCP stack nor the scripts
// copied received bytes, at 20 once Run reset a pooled rig instead of
// building one, then 18, then 15 once the rig leased its scripts as copies
// of the session's templates instead of cloning them and installing a
// server factory per trial, then ~2.8 once the rig kept its GFW and reset
// it in place instead of building one per trial, and reads 0.000–0.001 now
// that censors inject into their own buffers. The mean is exact
// (allocs.Mean over 1,000 trials, not AllocsPerRun's truncated integer),
// and the budget is its upper reading plus 10%, rounded up to one decimal,
// so one new allocation every fifth trial fails it.
// It runs with metrics explicitly disabled: the obs layer's
// zero-cost-when-off guarantee is part of what this tripwire enforces.
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
	mean := allocs.Mean(50, 1000, func() {
		seed++
		Run(Config{
			Country:  CountryChina,
			Session:  session,
			Strategy: st,
			Tries:    1,
			Seed:     seed,
		})
	})
	t.Logf("%.3f allocs per trial", mean)
	const budget = 0.1
	if mean > budget {
		t.Errorf("full trial allocates %.3f objects/op, budget is %.1f (seed baseline was ~151)",
			mean, budget)
	}
}

// TestAllocBudgetFitnessSample pins the cost of one computed fitness
// evaluation: a Kazakhstan/http strategy with a corrupt tamper, so its
// engine stream is drawn from, sampled over 10 trials (no cache lookup).
// Before trial generators were pooled and lazily seeded, a sample took 456
// allocations and ~267 KB, ~217 KB of it four fresh math/rand tables per
// trial; it took 384 and ~51 KB, then 364 and ~48 KB once received bytes
// were not copied, 104 and 13,344 bytes once its trials reset a pooled rig,
// which keeps its generators, endpoints, network and compiled engine, then
// 94 and 12,864, then 64 and 9,824 once the rig leased its scripts from a
// freelist it keeps, 24 and 864 bytes once the rig kept its Kazakhstan
// censor and reset it in place instead of building one per trial, and
// takes 4.00–4.01 and 624 bytes now that the DPI reads names in place.
// Both are exact means over 100 and 20 samples, and both budgets are the
// upper reading plus 10%, rounded up (allocations to one decimal). The
// byte bound fails if even one generator per sample goes back to
// allocating its ~4.9 KB table, or the censor to being built anew per
// trial.
func TestAllocBudgetFitnessSample(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	if obs.Enabled() {
		t.Fatal("metrics unexpectedly enabled; a prior test leaked obs state")
	}
	s3, _ := strategies.ByNumber(3)
	s := s3.Parse()
	ev := NewEvaluator(CountryKazakhstan, "http", 10, 1)
	// allocs.Mean pins GOMAXPROCS to 1, so the trials run sequentially on
	// this goroutine; the byte count below does the same.
	mean := allocs.Mean(5, 100, func() { ev.sample(s, true) })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const samples = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < samples; i++ {
		ev.sample(s, true)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / samples
	t.Logf("%.3f allocs, %.0f bytes per sample", mean, bytes)
	const budget, bytesBudget = 4.5, 687
	if mean > budget {
		t.Errorf("a fitness sample allocates %.3f objects, budget is %.1f", mean, budget)
	}
	if bytes > bytesBudget {
		t.Errorf("a fitness sample allocates %.0f bytes, budget is %d", bytes, bytesBudget)
	}
}
