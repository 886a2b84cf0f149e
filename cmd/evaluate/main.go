// Command evaluate reproduces the paper's tables, figures, and follow-up
// experiments against the simulated censors. With no flags it prints the
// full report (the content of EXPERIMENTS.md; at 300 trials it is
// docs/RESULTS.txt).
//
// Usage:
//
//	evaluate [-trials N] [-workers N] [-experiment NAME]
//	         [-loss P] [-dup P] [-reorder P] [-jitter D]
//	         [-metrics] [-manifest out.json]
//
// Every table, figure and experiment is one entry of internal/paper's
// experiments list, and the report prints the entries in its order. This
// command parses the flags, prints the report (or -experiment NAME's entry
// alone; `evaluate -h` lists the names), the closing stats line and the
// manifest.
//
// -workers sets GOMAXPROCS, and with it the default width of every worker
// pool (0 = leave it at one per CPU). Every number printed is identical at
// any width; the closing stats line reports the width used and the
// wall-clock time.
//
// -metrics enables the cross-layer counters (internal/obs) and prints the
// nonzero ones after the run; -manifest additionally writes the structured
// run manifest — config, seed schedule, and every counter, zeroes included —
// as diffable JSON. The manifest omits -workers, which cannot change a
// printed number. Counters observe and never steer, so every printed
// number is identical with and without them.
//
// The impairment flags run the robustness sweep (evasion rate vs. loss rate
// for every strategy against every censor) on a degraded network path:
// -loss 0.02 sweeps all strategies at 2% packet loss; -experiment robustness
// climbs the default loss ladder instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/paper"
)

func main() {
	trials := flag.Int("trials", 200, "trials per Table 2 cell / experiment sample size")
	workers := flag.Int("workers", 0, "GOMAXPROCS, the default worker-pool width for every experiment (0 = one per CPU); results are identical at any width")
	name := flag.String("experiment", "", "print one entry instead of the whole report: "+strings.Join(paper.Names(), ", "))
	loss := flag.Float64("loss", -1, "robustness sweep at this packet loss rate (e.g. 0.02)")
	dup := flag.Float64("dup", 0, "robustness sweep: per-packet duplication probability")
	reorder := flag.Float64("reorder", 0, "robustness sweep: per-packet reordering probability")
	jitter := flag.Duration("jitter", 0, "robustness sweep: max random extra delivery delay (e.g. 3ms)")
	metrics := flag.Bool("metrics", false, "enable cross-layer counters and print the nonzero ones after the run")
	manifest := flag.String("manifest", "", "write a structured run manifest (JSON) to this file; implies -metrics")
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "-trials must be at least 1, got %d\n", *trials)
		os.Exit(2)
	}
	imp := netsim.Profile{Loss: *loss, Duplicate: *dup, Reorder: *reorder, Jitter: *jitter}
	if *loss == -1 { // unset
		imp.Loss = 0
	}
	if err := eval.CheckProfile(imp); err != nil {
		fmt.Fprintln(os.Stderr, "impairment flags:", err)
		os.Exit(2)
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *metrics || *manifest != "" {
		obs.SetEnabled(true)
		obs.Reset()
	}
	start := time.Now()

	w := os.Stdout
	impaired := *loss >= 0 || *dup > 0 || *reorder > 0 || *jitter > 0
	if *name != "" {
		if err := paper.Run(w, *name, *trials); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else if !impaired {
		paper.Report(w, *trials)
	}
	if impaired {
		var ladder []float64
		if *loss >= 0 {
			ladder = []float64{*loss}
		}
		paper.PrintRobustness(w, imp, ladder, *trials)
	}
	fmt.Printf("\n[workers=%d  wall=%s]\n", eval.Workers(), time.Since(start).Round(time.Millisecond))
	if *metrics {
		fmt.Printf("\n--- metrics ---\n%s", obs.Take().Format())
	}
	if *manifest != "" {
		cfg := map[string]string{
			"trials":     strconv.Itoa(*trials),
			"experiment": *name,
			"loss":       strconv.FormatFloat(*loss, 'g', -1, 64),
			"dup":        strconv.FormatFloat(*dup, 'g', -1, 64),
			"reorder":    strconv.FormatFloat(*reorder, 'g', -1, 64),
			"jitter":     jitter.String(),
		}
		// The harness's experiment seed bases are fixed in source. Every
		// sampled experiment runs its trials through eval.RateStats, so
		// the schedule records the derivation each trial applies to its
		// experiment's base.
		m := obs.NewManifest("evaluate", cfg, eval.SeedSchedule(0))
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "writing manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
}
