package eval

import (
	"fmt"
	"runtime"
	"sync"

	"geneva/internal/core"
)

// Workers is the default worker-pool width, one worker per CPU
// (GOMAXPROCS), used whenever a per-call knob (Config.Workers,
// EvolveOptions.Workers, fleet Workload.Workers) is left zero. Results are
// identical at any width: every trial and every fitness sample derives its
// randomness from seeds alone, never from scheduling order.
func Workers() int { return runtime.GOMAXPROCS(0) }

// EvalStats counts an Evaluator's fitness-cache traffic. Counts depend only
// on the sequence of BatchFitness/Fitness calls, never on worker scheduling,
// so they are as reproducible as the fitness values themselves.
type EvalStats struct {
	// Hits counts strategies answered from the cross-call cache.
	Hits int
	// Misses counts fitness computations actually run.
	Misses int
	// Dedups counts strategies that shared a batch-mate's computation:
	// canonical duplicates collapsed within a single BatchFitness call.
	Dedups int
	// Entries is the number of distinct canonical strategies cached.
	Entries int
}

// Lookups is the total number of strategies scored.
func (s EvalStats) Lookups() int { return s.Hits + s.Misses + s.Dedups }

// HitRate is the fraction of lookups that avoided a fresh computation
// (cache hits plus in-batch dedups), in [0, 1].
func (s EvalStats) HitRate() float64 {
	if s.Lookups() == 0 {
		return 0
	}
	return float64(s.Hits+s.Dedups) / float64(s.Lookups())
}

// String renders the one-line stats summary the commands print.
func (s EvalStats) String() string {
	return fmt.Sprintf("fitness cache: %d lookups, %d hits, %d in-batch dedups, %d computed (%.0f%% avoided), %d entries",
		s.Lookups(), s.Hits, s.Dedups, s.Misses, 100*s.HitRate(), s.Entries)
}

// Evaluator scores strategies for one training configuration — a fixed
// (country, protocol, trials-per-sample, seed base) — with a memoizing
// fitness cache and a bounded worker pool over individuals. Because a
// strategy's fitness here is a pure function of its canonical text and the
// seed base (every sample reuses the same seed schedule), cached and
// parallel evaluation return bit-identical values to the sequential path;
// the determinism suite in engine_test.go enforces exactly that.
//
// Its BatchFitness method satisfies genetic.Config.BatchFitness. An
// Evaluator is safe for concurrent use.
type Evaluator struct {
	// Workers bounds the population pool (0 = the package default,
	// Workers()). Set before first use.
	Workers int
	// NoCache disables cross-call memoization — every call re-measures,
	// though canonical duplicates within one batch still share a single
	// computation. Fitness is pure, so results are identical either way;
	// this is the knob the determinism suite turns to prove it.
	NoCache bool

	country  string
	protocol string
	trials   int
	seedBase int64

	mu    sync.Mutex
	cache map[string]float64
	stats EvalStats
}

// NewEvaluator builds an evaluator for one training configuration: fitness
// is the success rate over trials connections through country's censor,
// sampled from the seed schedule rooted at seedBase (the exact schedule
// FitnessFor uses).
func NewEvaluator(country, protocol string, trials int, seedBase int64) *Evaluator {
	return &Evaluator{
		country:  country,
		protocol: protocol,
		trials:   trials,
		seedBase: seedBase,
		cache:    make(map[string]float64),
	}
}

// key is the cache key: the strategy's canonical text, so two strategies
// that print identically share one entry. The evaluation context (country,
// protocol, trials, seed base) is fixed per Evaluator and the cache is
// per-Evaluator, so the text alone cannot collide across configurations —
// and because String() is memoized, keying a lookup allocates nothing.
func (e *Evaluator) key(s *core.Strategy) string {
	return s.String()
}

// Fitness scores one strategy (the genetic.Config.Fitness shape), through
// the same cache as BatchFitness.
func (e *Evaluator) Fitness(s *core.Strategy) float64 {
	return e.BatchFitness([]*core.Strategy{s})[0]
}

// BatchFitness scores a whole population: the genetic.Config.BatchFitness
// seam. The batch is first collapsed to unique, uncached canonical
// strategies (in first-appearance order, so the work list is deterministic);
// only those are measured, on a pool of up to Workers goroutines.
func (e *Evaluator) BatchFitness(batch []*core.Strategy) []float64 {
	keys := make([]string, len(batch))
	resolved := make(map[string]float64, len(batch))
	pending := make(map[string]bool)
	var todo []int // batch index of each unique uncached strategy

	e.mu.Lock()
	for i, s := range batch {
		k := e.key(s)
		keys[i] = k
		if _, ok := resolved[k]; ok {
			e.stats.Hits++
			mCacheHits.Inc()
			continue
		}
		if !e.NoCache {
			if f, ok := e.cache[k]; ok {
				resolved[k] = f
				e.stats.Hits++
				mCacheHits.Inc()
				continue
			}
		}
		if pending[k] {
			e.stats.Dedups++
			mCacheDedups.Inc()
			continue
		}
		pending[k] = true
		todo = append(todo, i)
		e.stats.Misses++
		mCacheMisses.Inc()
	}
	e.mu.Unlock()

	results := make([]float64, len(todo))
	workers := e.Workers
	if workers <= 0 {
		workers = Workers()
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers <= 1 {
		// The population pool is idle, so each sample may fan its trials
		// out on the per-trial pool in trial.go.
		for j, i := range todo {
			results[j] = e.sample(batch[i], true)
		}
	} else {
		// Population-level parallelism: individuals run concurrently and
		// each samples its trials sequentially, so the two pool layers
		// never oversubscribe the CPUs.
		RunParallel(workers, len(todo), func(j int) {
			results[j] = e.sample(batch[todo[j]], false)
		})
	}

	e.mu.Lock()
	for j, i := range todo {
		resolved[keys[i]] = results[j]
		if !e.NoCache {
			e.cache[keys[i]] = results[j]
		}
	}
	e.stats.Entries = len(e.cache)
	mCacheEntries.SetMax(uint64(len(e.cache)))
	e.mu.Unlock()

	out := make([]float64, len(batch))
	for i, k := range keys {
		out[i] = resolved[k]
	}
	return out
}

// sample measures a strategy's raw success rate — the pure function the
// cache memoizes. trialPool selects whether the per-trial worker pool may
// be used; the population pool passes false for itself to avoid
// oversubscription.
func (e *Evaluator) sample(s *core.Strategy, trialPool bool) float64 {
	cfg := Config{
		Country:  e.country,
		Session:  SessionFor(e.country, e.protocol, true),
		Strategy: s,
		Tries:    TriesFor(e.protocol),
		Seed:     e.seedBase,
	}
	if !trialPool {
		cfg.Workers = 1
	}
	return Rate(cfg, e.trials)
}

// Stats returns a snapshot of the cache counters.
func (e *Evaluator) Stats() EvalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
