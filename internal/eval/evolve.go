package eval

import (
	"fmt"
	"math/rand"

	"geneva/internal/core"
	"geneva/internal/genetic"
)

// EvolveOptions configures a server-side training run.
type EvolveOptions struct {
	Country  string
	Protocol string
	// Population and Generations default to the paper's 300 and 50 when
	// zero; negative sizes are rejected.
	Population  int
	Generations int
	// TrialsPerEval is the fitness sample size per individual (0 = 10).
	TrialsPerEval int
	Seed          int64
	// Workers bounds the population-evaluation pool (0 = Workers(), one
	// worker per CPU). Any width returns the same Result.
	Workers int
}

// Check returns the error Evolve would return for opt without running it:
// an unknown Country or Protocol, or a negative size.
func (opt EvolveOptions) Check() error {
	if err := CheckCountryProtocol(opt.Country, opt.Protocol); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Population", opt.Population}, {"Generations", opt.Generations}, {"TrialsPerEval", opt.TrialsPerEval}} {
		if f.v < 0 {
			return fmt.Errorf("EvolveOptions.%s = %d is negative", f.name, f.v)
		}
	}
	return nil
}

// Evolve runs Geneva server-side against a simulated censor, as the paper
// does against the real ones, and returns the evolution result. Triggers
// are restricted to SYN+ACK (the §4.1 optimization). Populations are scored
// by the parallel, memoizing evaluation engine (see Evaluator); use
// EvolveWithStats to also observe the cache counters. An unknown Country or
// Protocol returns an error wrapping ErrUnknownCountry/ErrUnknownProtocol
// instead of panicking inside the rig, and a negative Population,
// Generations or TrialsPerEval returns an error naming the field.
func Evolve(opt EvolveOptions) (genetic.Result, error) {
	res, _, err := EvolveWithStats(opt)
	return res, err
}

// EvolveWithStats is Evolve plus the evaluation engine's cache statistics.
func EvolveWithStats(opt EvolveOptions) (genetic.Result, EvalStats, error) {
	if err := opt.Check(); err != nil {
		return genetic.Result{}, EvalStats{}, err
	}
	if opt.TrialsPerEval == 0 {
		opt.TrialsPerEval = 10
	}
	ev := NewEvaluator(opt.Country, opt.Protocol, opt.TrialsPerEval, opt.Seed)
	ev.Workers = opt.Workers
	res := evolve(opt, ev.BatchFitness)
	return res, ev.Stats(), nil
}

// evolve runs the GA with the paper's server-side configuration, scoring
// each generation through batch.
func evolve(opt EvolveOptions, batch func([]*core.Strategy) []float64) genetic.Result {
	return genetic.Evolve(genetic.Config{
		PopulationSize: opt.Population,
		Generations:    opt.Generations,
		TriggerValue:   "SA",
		// §4.1: for every protocol but FTP, the SYN+ACK is the only
		// packet a server sends before censorship, so triggers are
		// restricted to it; FTP servers speak first (the 220 greeting),
		// so there the trigger itself evolves.
		EvolveTrigger: protocolRow(opt.Protocol).serverFirst,
		BatchFitness:  batch,
		Rng:           newRand(opt.Seed),
	})
}

// randomEvolvable builds a random GA-shaped strategy (exposed for the fuzz
// tests, which reuse the GA's generator through this seam).
func randomEvolvable(rng *rand.Rand) *core.Strategy {
	return genetic.RandomStrategy(rng, "SA")
}
