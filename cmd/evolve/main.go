// Command evolve runs Geneva's genetic search server-side against a
// simulated censor, as §4.1 of the paper runs it against real ones.
//
// Usage:
//
//	evolve [-country china] [-protocol http] [-population 300]
//	       [-generations 50] [-trials 10] [-seed 0] [-workers 0]
//	       [-metrics] [-manifest out.json]
//
// It prints per-generation statistics, the evaluation engine's cache stats,
// and the best strategy found, then confirms the winner with fresh seeds.
// -workers bounds the population-evaluation pool (0 = one per CPU); the
// result is bit-identical at any width.
//
// -metrics enables the cross-layer counters (internal/obs) and prints the
// nonzero ones after the run; -manifest additionally writes the structured
// run manifest (config, the search's fitness-cache stats, seed schedule,
// every counter) as diffable JSON. The manifest omits -workers, which
// cannot change the run.
// Counters observe and never steer, so the evolved strategy is bit-identical
// with and without them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/genetic"
	"geneva/internal/obs"
)

// usageError is a bad flag or option, on which the command exits 2; it
// exits 1 on any other error. A bad flag's usageError carries no error:
// the flag set has already reported it.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout)
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		if usage.error != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, runs the search and writes its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("evolve", flag.ContinueOnError)
	country := fs.String("country", "china", "censor to evolve against: "+strings.Join(eval.CensoredCountries(), ", "))
	protocol := fs.String("protocol", "http", "dns, ftp, http, https, or smtp")
	population := fs.Int("population", 300, "population size (paper: 300)")
	generations := fs.Int("generations", 50, "generation budget (paper: 50)")
	trials := fs.Int("trials", 10, "fitness trials per individual")
	seed := fs.Int64("seed", 0, "RNG seed")
	minimize := fs.Bool("minimize", true, "prune the winner while fitness holds")
	workers := fs.Int("workers", 0, "population-evaluation workers (0 = one per CPU); any width gives the same result")
	metrics := fs.Bool("metrics", false, "enable cross-layer counters and print the nonzero ones after the run")
	manifest := fs.String("manifest", "", "write a structured run manifest (JSON) to this file; implies -metrics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{}
	}

	if *metrics || *manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}

	fmt.Fprintf(w, "Evolving server-side strategies against %s / %s (population %d, <= %d generations, %d trials/individual)\n\n",
		*country, *protocol, *population, *generations, *trials)

	res, stats, err := eval.EvolveWithStats(eval.EvolveOptions{
		Country:       *country,
		Protocol:      *protocol,
		Population:    *population,
		Generations:   *generations,
		TrialsPerEval: *trials,
		Seed:          *seed,
		Workers:       *workers,
	})
	if err != nil {
		return usageError{err}
	}
	for _, g := range res.History {
		fmt.Fprintf(w, "gen %2d: best %.2f  mean %.2f  distinct %3d  %s\n",
			g.Generation, g.Best, g.Mean, g.Distinct, g.BestDSL)
	}
	fmt.Fprintf(w, "\n%s\n", stats)

	best := res.Best.Strategy
	fmt.Fprintf(w, "\nBest strategy: %s\n", best.String())
	if *minimize {
		fitness := eval.NewEvaluator(*country, *protocol, *trials*2, *seed+50000).Fitness
		pruned, fit := genetic.Minimize(best, fitness, 0.05)
		if pruned.Size() < best.Size() {
			fmt.Fprintf(w, "Minimized:     %s (fitness %.2f, %d -> %d nodes)\n",
				pruned.String(), fit, best.Size(), pruned.Size())
			best = pruned
		}
	}
	confirm := eval.Rate(eval.Trial(*country, *protocol, best, *seed+100000), 200)
	fmt.Fprintf(w, "Confirmed success rate over 200 fresh trials: %.0f%%\n", 100*confirm)
	if *metrics {
		fmt.Fprintf(w, "\n--- metrics ---\n%s", obs.Take().Format())
	}
	if *manifest != "" {
		cfg := map[string]string{
			"country":       *country,
			"protocol":      *protocol,
			"population":    strconv.Itoa(*population),
			"generations":   strconv.Itoa(*generations),
			"trials":        strconv.Itoa(*trials),
			"minimize":      strconv.FormatBool(*minimize),
			"best":          best.String(),
			"cache_hits":    strconv.Itoa(stats.Hits),
			"cache_misses":  strconv.Itoa(stats.Misses),
			"cache_dedups":  strconv.Itoa(stats.Dedups),
			"cache_entries": strconv.Itoa(stats.Entries),
		}
		m := obs.NewManifest("evolve", cfg, eval.SeedSchedule(*seed))
		if err := m.WriteFile(*manifest); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
		fmt.Fprintf(w, "manifest written to %s\n", *manifest)
	}
	return nil
}
