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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/genetic"
	"geneva/internal/obs"
)

func main() {
	country := flag.String("country", "china", "censor to evolve against: "+strings.Join(eval.CensoredCountries(), ", "))
	protocol := flag.String("protocol", "http", "dns, ftp, http, https, or smtp")
	population := flag.Int("population", 300, "population size (paper: 300)")
	generations := flag.Int("generations", 50, "generation budget (paper: 50)")
	trials := flag.Int("trials", 10, "fitness trials per individual")
	seed := flag.Int64("seed", 0, "RNG seed")
	minimize := flag.Bool("minimize", true, "prune the winner while fitness holds")
	workers := flag.Int("workers", 0, "population-evaluation workers (0 = one per CPU); any width gives the same result")
	metrics := flag.Bool("metrics", false, "enable cross-layer counters and print the nonzero ones after the run")
	manifest := flag.String("manifest", "", "write a structured run manifest (JSON) to this file; implies -metrics")
	flag.Parse()

	if *metrics || *manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}

	fmt.Printf("Evolving server-side strategies against %s / %s (population %d, <= %d generations, %d trials/individual)\n\n",
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
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	for _, g := range res.History {
		fmt.Printf("gen %2d: best %.2f  mean %.2f  distinct %3d  %s\n",
			g.Generation, g.Best, g.Mean, g.Distinct, g.BestDSL)
	}
	fmt.Printf("\n%s\n", stats)

	best := res.Best.Strategy
	fmt.Printf("\nBest strategy: %s\n", best.String())
	if *minimize {
		fitness := eval.NewEvaluator(*country, *protocol, *trials*2, *seed+50000).Fitness
		pruned, fit := genetic.Minimize(best, fitness, 0.05)
		if pruned.Size() < best.Size() {
			fmt.Printf("Minimized:     %s (fitness %.2f, %d -> %d nodes)\n",
				pruned.String(), fit, best.Size(), pruned.Size())
			best = pruned
		}
	}
	confirm := eval.Rate(eval.Trial(*country, *protocol, best, *seed+100000), 200)
	fmt.Printf("Confirmed success rate over 200 fresh trials: %.0f%%\n", 100*confirm)
	if *metrics {
		fmt.Printf("\n--- metrics ---\n%s", obs.Take().Format())
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
			fmt.Fprintf(os.Stderr, "writing manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
}
