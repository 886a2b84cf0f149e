// Command bench is the repository benchmark. It runs one workload of the
// simulator for a fixed time, checks every run's outputs, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics of a
// traced replay — ending with one JSON result line:
//
//	bash bench/run.sh -workload fleet-oneshot -seed 1 -seconds 20 -trace 0
//
// See README.md in this directory for the workloads, the metrics and how
// to compare two builds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	if spec := os.Getenv(coldEnv); spec != "" {
		os.Exit(runCold(spec))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	profile  bool
	// out is the directory span dumps and profiles are written under.
	out string

	// scale divides the workload size; tests set it above 1.
	scale int
	// setupRuns is the number of set-up probes; exe is the binary they run.
	setupRuns int
	exe       string
	// minRuns is the least number of timed runs, however long they take.
	minRuns int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload inputs are built from")
	seconds := fs.Float64("seconds", 20, "how long the timed runs last, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics instead of the end-to-end ones")
	profile := fs.Bool("profile", false, "also record a CPU profile of one run and print profile.<group>_frac shares")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *workload == "" {
		return config{}, fmt.Errorf("-workload is required (one of %v)", workloadNames)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive")
	}
	exe, err := os.Executable()
	if err != nil {
		return config{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	return config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		profile:   *profile,
		out:       ".bench_build",
		scale:     1,
		setupRuns: 3,
		exe:       exe,
		minRuns:   5,
	}, nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation and returns the exit code.
func run(cfg config, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(workerCount)
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%t scale=%d\n",
		w.name, w.seed, cfg.seconds.Seconds(), cfg.trace, cfg.scale)
	fmt.Fprintf(stdout, "host: %s\n", readHost())

	var setup []float64
	setupAttempts, setupFailures := 0, []string(nil)
	if !cfg.trace {
		setup, err = measureSetup(cfg.exe, w, cfg.setupRuns)
		setupAttempts = len(setup)
		if err != nil {
			setupAttempts++
			setupFailures = append(setupFailures, err.Error())
		}
		for i, s := range setup {
			fmt.Fprintf(stdout, "set-up probe %d: %.4f s\n", i+1, s)
		}
	}

	m := measure(w, cfg.seconds, cfg.minRuns, stdout)
	fmt.Fprintf(stdout, "steal: %.2f%% of CPU time over %d timed runs\n", 100*m.steal, len(m.samples))
	if m.steal > 0.02 {
		fmt.Fprintf(stderr, "warning: hypervisor steal was %.1f%% during the timed runs; the timings are suspect\n", 100*m.steal)
	}

	ms := &metricSet{}
	switch {
	case m.ref.digest == nil:
		// The warm-up failed: there is no reference to measure against.
	case cfg.trace:
		ms = traceLayers(w, m, cfg.out, stdout)
	default:
		ms = endToEnd(m, setup, stdout)
	}
	if cfg.profile && m.ref.digest != nil {
		if err := profilePass(w, m, cfg.out, ms); err != nil {
			m.fail(-1, "%v", err)
		}
	}
	ms.print(stdout)

	failures := append(setupFailures, m.failures...)
	res := result{
		Correct:   len(failures) == 0,
		Attempted: m.attempted + setupAttempts,
		Failed:    len(failures),
		Metrics:   ms.vals,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, f := range failures {
		fmt.Fprintf(stderr, "check failed: %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}
