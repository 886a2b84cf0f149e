package eval

import (
	"math/rand"

	"geneva/internal/core"
	"geneva/internal/genetic"
)

// FitnessFor builds the fitness function Geneva trains with (§4.1): the
// fraction of trials in which a strategy lets an unmodified client fetch
// the forbidden content through the given country's censor.
func FitnessFor(country, protocol string, trials int, seedBase int64) func(*core.Strategy) float64 {
	return func(s *core.Strategy) float64 {
		cfg := Config{
			Country:  country,
			Session:  SessionFor(country, protocol, true),
			Strategy: s,
			Tries:    TriesFor(protocol),
			Seed:     seedBase,
		}
		return Rate(cfg, trials)
	}
}

// EvolveOptions configures a server-side training run.
type EvolveOptions struct {
	Country  string
	Protocol string
	// Population and Generations default to the paper's 300 and 50.
	Population  int
	Generations int
	// TrialsPerEval is the fitness sample size per individual.
	TrialsPerEval int
	Seed          int64
	// Workers bounds the population-evaluation pool (0 = Workers(), one
	// worker per CPU). Any width returns the same Result.
	Workers int
	// NoCache disables the cross-generation fitness memo, re-measuring
	// every canonical strategy each generation. Fitness is pure, so the
	// Result is identical; the determinism suite turns this knob.
	NoCache bool
	// Sequential forces the original one-strategy-at-a-time fitness path
	// (no batch seam, no population pool, no eval-side cache) — the
	// reference implementation the parallel engine is tested against.
	Sequential bool
}

// Evolve runs Geneva server-side against a simulated censor, as the paper
// does against the real ones, and returns the evolution result. Triggers
// are restricted to SYN+ACK (the §4.1 optimization). Populations are scored
// by the parallel, memoizing evaluation engine (see Evaluator); use
// EvolveWithStats to also observe the cache counters. An unknown Country or
// Protocol returns an error wrapping ErrUnknownCountry/ErrUnknownProtocol
// instead of panicking inside the rig.
func Evolve(opt EvolveOptions) (genetic.Result, error) {
	res, _, err := EvolveWithStats(opt)
	return res, err
}

// EvolveWithStats is Evolve plus the evaluation engine's cache statistics.
// On the Sequential path the stats are zero (there is no engine).
func EvolveWithStats(opt EvolveOptions) (genetic.Result, EvalStats, error) {
	if err := CheckCountryProtocol(opt.Country, opt.Protocol); err != nil {
		return genetic.Result{}, EvalStats{}, err
	}
	if opt.TrialsPerEval == 0 {
		opt.TrialsPerEval = 10
	}
	cfg := genetic.Config{
		PopulationSize: opt.Population,
		Generations:    opt.Generations,
		TriggerValue:   "SA",
		// §4.1: for every protocol but FTP, the SYN+ACK is the only
		// packet a server sends before censorship, so triggers are
		// restricted to it; FTP servers speak first (the 220 greeting),
		// so there the trigger itself evolves.
		EvolveTrigger: opt.Protocol == "ftp",
		Rng:           rand.New(rand.NewSource(opt.Seed)),
	}
	if opt.Sequential {
		cfg.Fitness = FitnessFor(opt.Country, opt.Protocol, opt.TrialsPerEval, opt.Seed)
		return genetic.Evolve(cfg), EvalStats{}, nil
	}
	ev := NewEvaluator(opt.Country, opt.Protocol, opt.TrialsPerEval, opt.Seed)
	ev.Workers = opt.Workers
	ev.NoCache = opt.NoCache
	cfg.BatchFitness = ev.BatchFitness
	res := genetic.Evolve(cfg)
	return res, ev.Stats(), nil
}

// randomEvolvable builds a random GA-shaped strategy (exposed for the fuzz
// tests, which reuse the GA's generator through this seam).
func randomEvolvable(rng *rand.Rand) *core.Strategy {
	return genetic.RandomStrategy(rng, "SA")
}
