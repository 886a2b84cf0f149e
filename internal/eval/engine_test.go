package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"geneva/internal/censor"
	"geneva/internal/core"
	"geneva/internal/genetic"
)

// referenceFitness is the scorer the engine is tested against: it
// measures every strategy afresh with Rate at Workers 1 — no cache, no
// in-batch dedup, no pool.
func referenceFitness(country, protocol string, trials int, seedBase int64) func([]*core.Strategy) []float64 {
	return func(batch []*core.Strategy) []float64 {
		out := make([]float64, len(batch))
		for i, s := range batch {
			out[i] = Rate(Config{
				Country:  country,
				Session:  SessionFor(country, protocol, true),
				Strategy: s,
				Tries:    TriesFor(protocol),
				Seed:     seedBase,
				Workers:  1,
			}, trials)
		}
		return out
	}
}

// resultKey flattens the fields of a genetic.Result that define a training
// outcome: best strategy text, best fitness, and the full per-generation
// history (which pins generation count, means, and distinct counts too).
func resultKey(t *testing.T, country, proto string, res genetic.Result) string {
	t.Helper()
	if res.Best.Strategy == nil {
		t.Fatalf("%s/%s: no best strategy", country, proto)
	}
	return fmt.Sprintf("best=%s fitness=%v gens=%d history=%+v",
		res.Best.Strategy.String(), res.Best.Fitness, len(res.History), res.History)
}

// TestEvolveBatchMatchesSequentialSeedPath is the GA determinism
// regression: the parallel+cached engine, at GOMAXPROCS 1, 2, and 8 and
// with a fresh (empty-cache) Evaluator every generation, must produce the
// exact Result the reference scorer produces, for {china, kazakhstan} x
// {http, ftp}. Fitness is a pure function of (canonical strategy, seed
// base), so any divergence means the engine leaked scheduling order or
// cache state into the trajectory.
func TestEvolveBatchMatchesSequentialSeedPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, country := range []string{CountryChina, CountryKazakhstan} {
		for _, proto := range []string{"http", "ftp"} {
			opt := EvolveOptions{
				Country:       country,
				Protocol:      proto,
				Population:    16,
				Generations:   3,
				TrialsPerEval: 2,
				Seed:          5,
			}
			runtime.GOMAXPROCS(1)
			want := resultKey(t, country, proto,
				evolve(opt, referenceFitness(country, proto, opt.TrialsPerEval, opt.Seed)))
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				res, _ := Evolve(opt)
				if got := resultKey(t, country, proto, res); got != want {
					t.Errorf("%s/%s GOMAXPROCS=%d: batch engine diverged from the reference scorer\n got %s\nwant %s",
						country, proto, procs, got, want)
				}
				fresh := func(batch []*core.Strategy) []float64 {
					return NewEvaluator(country, proto, opt.TrialsPerEval, opt.Seed).BatchFitness(batch)
				}
				if got := resultKey(t, country, proto, evolve(opt, fresh)); got != want {
					t.Errorf("%s/%s GOMAXPROCS=%d (fresh Evaluator per generation): diverged\n got %s\nwant %s",
						country, proto, procs, got, want)
				}
			}
		}
	}
}

// TestEvaluatorWorkerWidthInvariance pins the pool directly: explicit
// Workers values (not GOMAXPROCS) must not change a batch's scores.
func TestEvaluatorWorkerWidthInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	batch := make([]*core.Strategy, 12)
	for i := range batch {
		batch[i] = randomEvolvable(rng)
	}
	base := NewEvaluator(CountryKazakhstan, "http", 2, 9)
	base.Workers = 1
	want := base.BatchFitness(batch)
	for _, w := range []int{2, 3, 8} {
		ev := NewEvaluator(CountryKazakhstan, "http", 2, 9)
		ev.Workers = w
		if got := ev.BatchFitness(batch); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: scores %v != workers=1 scores %v", w, got, want)
		}
	}
}

// TestFitnessCacheProperty is the cache property test: for randomly
// generated GA-shaped strategies, cached fitness agrees exactly with the
// reference scorer, in-batch duplicates share one computation, repeat
// calls are pure hits, and canonical duplicates share one cache entry.
func TestFitnessCacheProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var batch []*core.Strategy
	for i := 0; i < 20; i++ {
		batch = append(batch, randomEvolvable(rng))
	}
	// Clones of batch members: same canonical text, distinct pointers.
	batch = append(batch, batch[0].Clone(), batch[7].Clone(), batch[7].Clone())

	distinct := make(map[string]bool)
	for _, s := range batch {
		distinct[s.String()] = true
	}

	cached := NewEvaluator(CountryKazakhstan, "http", 2, 5)
	a := cached.BatchFitness(batch)
	b := referenceFitness(CountryKazakhstan, "http", 2, 5)(batch)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cached scores %v != reference scores %v", a, b)
	}
	if st := cached.Stats(); st.Dedups != len(batch)-len(distinct) {
		t.Errorf("in-batch dedups = %d, want %d", st.Dedups, len(batch)-len(distinct))
	}
	for i, s := range batch {
		if f := cached.Fitness(s); f != a[i] {
			t.Errorf("strategy %d (%s): single fitness %v != batch fitness %v", i, s, f, a[i])
		}
	}

	st := cached.Stats()
	if st.Entries != len(distinct) {
		t.Errorf("cache holds %d entries for %d distinct canonical strategies", st.Entries, len(distinct))
	}
	if st.Misses != len(distinct) {
		t.Errorf("%d computations for %d distinct strategies", st.Misses, len(distinct))
	}

	// Re-scoring the whole batch must be answered entirely from the cache.
	misses := st.Misses
	a2 := cached.BatchFitness(batch)
	if !reflect.DeepEqual(a2, a) {
		t.Fatalf("re-scored batch %v != first scores %v", a2, a)
	}
	st2 := cached.Stats()
	if st2.Misses != misses {
		t.Errorf("re-scoring computed %d fresh evaluations", st2.Misses-misses)
	}
	if st2.Hits != st.Hits+len(batch) {
		t.Errorf("re-scoring produced %d hits, want %d", st2.Hits-st.Hits, len(batch))
	}
}

// TestFitnessCacheSharedEntryForEqualCanonicalStrings pins the cache-key
// claim in isolation: two strategies with equal String() occupy exactly one
// entry, and the second evaluation is a hit.
func TestFitnessCacheSharedEntryForEqualCanonicalStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randomEvolvable(rng)
	clone := s.Clone()
	if s.String() != clone.String() {
		t.Fatalf("clone changed canonical text: %q vs %q", s, clone)
	}
	ev := NewEvaluator(CountryKazakhstan, "http", 2, 7)
	f1 := ev.Fitness(s)
	f2 := ev.Fitness(clone)
	if f1 != f2 {
		t.Errorf("canonical twins scored differently: %v vs %v", f1, f2)
	}
	st := ev.Stats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats after twin evaluation: %+v, want 1 entry, 1 miss, 1 hit", st)
	}
}

// TestEvalStatsString keeps the commands' stats line well-formed.
func TestEvalStatsString(t *testing.T) {
	s := EvalStats{Hits: 6, Misses: 3, Dedups: 1, Entries: 3}
	if s.Lookups() != 10 {
		t.Errorf("Lookups() = %d, want 10", s.Lookups())
	}
	if got := s.HitRate(); got != 0.7 {
		t.Errorf("HitRate() = %v, want 0.7", got)
	}
	want := "fitness cache: 10 lookups, 6 hits, 1 in-batch dedups, 3 computed (70% avoided), 3 entries"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
	if (EvalStats{}).HitRate() != 0 {
		t.Error("zero stats must report hit rate 0")
	}
}

// TestNewCensorReturnsExportedCounter locks in the trial.go lint fix: the
// constructor's return type is the exported CensorCounter interface.
func TestNewCensorReturnsExportedCounter(t *testing.T) {
	var c CensorCounter = NewCensor(CountryChina, censor.Default(), rand.New(rand.NewSource(1)))
	if c == nil || c.CensoredCount() != 0 {
		t.Fatal("fresh censor must start with zero events")
	}
	if NewCensor(CountryNone, censor.Default(), rand.New(rand.NewSource(1))) != nil {
		t.Fatal("CountryNone must yield a nil censor")
	}
}
