// Command benchjson turns `go test -bench -benchmem` output (stdin) into
// the committed benchmark JSON files:
//
//	-set trial (default): BENCH_trial.json — the hot-path numbers next to
//	  the frozen pre-pooling baseline, plus the headline allocation-reduction
//	  ratio the pooling PR's acceptance criterion tracks (>= 2x on the trial
//	  benchmark).
//	-set fleet: BENCH_fleet.json — the deployment harness's conns/s across
//	  the worker ladder, plus the workers=8 / workers=1 scaling ratio.
//	-set hotpath: BENCH_hotpath.json — the event-queue and per-censor
//	  microbenchmarks guarding the simulator's two hottest loops.
//
// With -compare FILE the tool is a regression gate instead of a generator:
// stdin benchmark lines are compared against FILE's "current" map and any
// regression beyond -tolerance (default 10%) on the metrics selected by
// -compare-metrics exits non-zero. allocs/op is deterministic and
// machine-independent, so CI gates on it alone; ns/op gating is for
// same-machine use.
//
// Usage:
//
//	go test -run '^$' -bench 'Trial|PacketRoundtrip|...' -benchmem . | go run ./tools/benchjson > BENCH_trial.json
//	go test -run '^$' -bench 'BenchmarkFleet' -benchmem . | go run ./tools/benchjson -set fleet > BENCH_fleet.json
//	go test -run '^$' -bench 'EventQueue|CensorProcess' -benchmem . | go run ./tools/benchjson -set hotpath > BENCH_hotpath.json
//	go test -run '^$' -bench ... -benchmem . | go run ./tools/benchjson -compare BENCH_hotpath.json -compare-metrics allocs
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Zeroes are meaningful (the pooled
// roundtrip's 0 allocs/op is the headline), so the core fields are not
// omitempty; Metrics carries any custom b.ReportMetric units (conns/s,
// success_rate, ...) the line happened to include.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Iterations  int64              `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// baseline holds the pre-pooling numbers, measured at the parent commit on
// the same benchmark shapes (the trial benchmark was then named
// BenchmarkFullConnection; it runs the identical China/http Strategy-1
// trial). Frozen here so every regeneration of BENCH_trial.json carries
// the before/after comparison without needing to rebuild the old tree.
var baseline = map[string]Result{
	"BenchmarkTrial/notrace":   {NsPerOp: 80755, BytesPerOp: 35689, AllocsPerOp: 151},
	"BenchmarkFullConnection":  {NsPerOp: 80755, BytesPerOp: 35689, AllocsPerOp: 151},
	"BenchmarkPacketMarshal":   {NsPerOp: 204.3, AllocsPerOp: 4},
	"BenchmarkPacketParse":     {NsPerOp: 137.8, AllocsPerOp: 2},
	"BenchmarkEngineApply":     {NsPerOp: 891.4, AllocsPerOp: 10},
	"BenchmarkPacketRoundtrip": {}, // did not exist pre-pooling
}

// parseLine reads one `go test -bench` result line: the benchmark name
// (GOMAXPROCS suffix stripped), the iteration count, and then value/unit
// pairs — ns/op and the -benchmem pair into their own fields, anything else
// into Metrics.
func parseLine(line string) (string, Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			break
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[f[i+1]] = v
		}
	}
	return name, r, seen
}

func main() {
	set := flag.String("set", "trial", "which committed file this feeds: trial (BENCH_trial.json), fleet (BENCH_fleet.json), or hotpath (BENCH_hotpath.json)")
	compare := flag.String("compare", "", "compare stdin results against this committed BENCH_*.json instead of generating JSON; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.10, "with -compare: allowed fractional regression before failing")
	compareMetrics := flag.String("compare-metrics", "ns,allocs", "with -compare: comma-separated metrics to gate on (ns, allocs)")
	flag.Parse()

	current := map[string]Result{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			current[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *compare != "" {
		os.Exit(runCompare(*compare, current, *tolerance, *compareMetrics))
	}

	out := struct {
		Go       string             `json:"go"`
		Note     string             `json:"note"`
		Baseline map[string]Result  `json:"baseline_pre_pooling,omitempty"`
		Current  map[string]Result  `json:"current"`
		Summary  map[string]float64 `json:"summary"`
	}{
		Go:      runtime.Version(),
		Current: current,
		Summary: map[string]float64{},
	}
	switch *set {
	case "fleet":
		out.Note = "deployment-harness throughput (BenchmarkFleet): conns/s per " +
			"worker ladder rung at the 10^5-connection workload, plus " +
			"the longhorizon rung (keep-alive sessions with reconnect backoff " +
			"at 5×10^4 connections); fleet_scaling_8w_over_1w is the " +
			"wall-clock speedup of workers=8 over workers=1 " +
			"(~1.0 on a single-core host — the FleetResult itself is identical " +
			"at every width); regenerate with `make bench-fleet`, gate allocs " +
			"with `make bench-fleet-gate`"
		for name, r := range current {
			if v, ok := r.Metrics["conns/s"]; ok {
				// The rung is the full sub-benchmark path (e.g.
				// "longhorizon/workers=8"), not just the last segment —
				// flattened into a stable summary key.
				rung := name
				if i := strings.Index(rung, "/"); i >= 0 {
					rung = rung[i+1:]
				}
				rung = strings.ReplaceAll(rung, "=", "")
				rung = strings.ReplaceAll(rung, "/", "_")
				out.Summary["conns_per_sec_"+rung] = round2(v)
			}
		}
		w1, ok1 := current["BenchmarkFleet/workers=1"]
		w8, ok8 := current["BenchmarkFleet/workers=8"]
		if ok1 && ok8 && w8.NsPerOp > 0 {
			out.Summary["fleet_scaling_8w_over_1w"] = round2(w1.NsPerOp / w8.NsPerOp)
		}
	case "hotpath":
		out.Note = "event-queue and per-censor microbenchmarks over the " +
			"simulator's two hottest loops: BenchmarkEventQueue is a " +
			"pop-modify-push cycle at a steady queue depth (allocs/op must " +
			"stay 0 — the queue is a value slice), BenchmarkCensorProcess " +
			"drives one canned forbidden HTTP connection per op through each " +
			"registry censor; regenerate with `make bench-hotpath`"
		for name, r := range current {
			switch {
			case strings.HasPrefix(name, "BenchmarkEventQueue/"):
				depth := strings.TrimPrefix(name, "BenchmarkEventQueue/depth=")
				out.Summary["event_queue_ns_depth"+depth] = round2(r.NsPerOp)
				out.Summary["event_queue_allocs_depth"+depth] = r.AllocsPerOp
			case strings.HasPrefix(name, "BenchmarkCensorProcess/"):
				country := strings.TrimPrefix(name, "BenchmarkCensorProcess/")
				out.Summary["censor_conn_ns_"+country] = round2(r.NsPerOp)
				out.Summary["censor_conn_allocs_"+country] = r.AllocsPerOp
			}
		}
	default:
		out.Note = "baseline_pre_pooling was measured at the pre-pooling commit " +
			"(the trial shape was then BenchmarkFullConnection); regenerate " +
			"current with `make bench-trial`"
		out.Baseline = baseline
		if trial, ok := current["BenchmarkTrial/notrace"]; ok && trial.AllocsPerOp > 0 {
			base := baseline["BenchmarkTrial/notrace"]
			out.Summary["trial_allocs_reduction_x"] = round2(base.AllocsPerOp / trial.AllocsPerOp)
			out.Summary["trial_ns_reduction_x"] = round2(base.NsPerOp / trial.NsPerOp)
			out.Summary["trial_bytes_reduction_x"] = round2(base.BytesPerOp / trial.BytesPerOp)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }

// runCompare gates stdin results against a committed BENCH_*.json: every
// benchmark present in both is checked on the selected metrics, and any
// regression beyond tol fails the run. Benchmarks on only one side are
// reported but never fail — CI smoke runs measure a subset of the committed
// set. Returns the process exit code.
func runCompare(path string, current map[string]Result, tol float64, metrics string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var committed struct {
		Current map[string]Result `json:"current"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		return 1
	}
	gateNs := strings.Contains(metrics, "ns")
	gateAllocs := strings.Contains(metrics, "allocs")

	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		base, ok := committed.Current[name]
		if !ok {
			fmt.Printf("NEW      %-50s (not in %s)\n", name, path)
			continue
		}
		cur := current[name]
		verdict := "ok"
		var notes []string
		check := func(metric string, baseV, curV float64) {
			// A zero baseline is an exact bar: the committed 0 allocs/op
			// results are the whole point of their benchmarks.
			limit := baseV * (1 + tol)
			if baseV == 0 {
				limit = 0
			}
			if curV > limit {
				verdict = "REGRESS"
				failed = true
			}
			if baseV > 0 {
				notes = append(notes, fmt.Sprintf("%s %+.1f%%", metric, (curV/baseV-1)*100))
			} else if curV > 0 {
				notes = append(notes, fmt.Sprintf("%s 0 -> %g", metric, curV))
			}
		}
		if gateNs {
			check("ns/op", base.NsPerOp, cur.NsPerOp)
		}
		if gateAllocs {
			check("allocs/op", base.AllocsPerOp, cur.AllocsPerOp)
		}
		fmt.Printf("%-8s %-50s %s\n", verdict, name, strings.Join(notes, "  "))
	}
	if failed {
		fmt.Printf("FAIL: regression beyond %.0f%% against %s\n", tol*100, path)
		return 1
	}
	fmt.Printf("PASS: no regression beyond %.0f%% against %s (%d benchmarks)\n", tol*100, path, len(names))
	return 0
}
