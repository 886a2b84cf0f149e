package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// testScale shrinks every workload fiftyfold so the whole benchmark path —
// set-up probe, timed runs, checks, traced replay, count pass — runs in
// seconds, under -race too.
const testScale = 50

func TestMain(m *testing.M) {
	// The set-up probes re-execute the test binary as the cold-run child.
	if spec := os.Getenv(coldEnv); spec != "" {
		os.Exit(runCold(spec))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Bound float64
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs one reduced-size invocation and returns its result line.
func runBench(t *testing.T, workload string, trace bool) result {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		workload:  workload,
		seed:      7,
		seconds:   time.Millisecond,
		trace:     trace,
		out:       t.TempDir(),
		scale:     testScale,
		setupRuns: 1,
		exe:       exe,
		minRuns:   2,
	}
	var stdout, stderr bytes.Buffer
	code := run(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v\nstdout:\n%s\nstderr:\n%s", code, res, stdout.String(), stderr.String())
	}
	return res
}

// checkMetrics requires res to carry exactly the metrics of want, with
// their units.
func checkMetrics(t *testing.T, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestEveryWorkload drives each workload through the measured path and the
// traced path. The traced path fails unless the replay reproduces the
// program's outcome counts exactly and the count pass reproduces its
// result.
func TestEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := runBench(t, name, false)
			checkMetrics(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			res = runBench(t, name, true)
			checkMetrics(t, res, spec.PerLayer)
			if d := res.Metrics["trace.replay_served_delta"].Value; d != 0 {
				t.Errorf("replay delta %v", d)
			}
			if c := res.Metrics["trace.self_coverage"].Value; c < 0.95 || c > 1.0001 {
				t.Errorf("self times cover %.4f of the traced replay, want within 5%%", c)
			}
		})
	}
}

func TestChecksRejectBrokenResults(t *testing.T) {
	w, err := newWorkload("fleet-smallcell", 3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	o, err := w.run(workerCount)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(o); err != nil {
		t.Fatalf("clean run fails its checks: %v", err)
	}
	broken := o
	broken.fleet.Succeeded = broken.fleet.Connections + 1
	if w.check(broken) == nil {
		t.Error("served > connections passed the checks")
	}
	broken = o
	broken.fleet.RequestsServed++
	if w.check(broken) == nil {
		t.Error("per-country sums that differ from the totals passed the checks")
	}
	w.refOutcome, w.tol = o.value()+0.05, 0.01
	if w.check(o) == nil {
		t.Error("a served fraction 0.05 off the reference passed the checks")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, med, q3 := quartiles(c.in)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: geneva-bench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.40s 40.00% 40.00%      0.50s 50.00%  geneva/internal/censor/gfw.(*GFW).Process
     0.30s 30.00% 70.00%      0.30s 30.00%  runtime.scanobject
     0.20s 20.00% 90.00%      0.20s 20.00%  math/rand.(*rngSource).Seed
     0.05s  5.00% 95.00%      0.05s  5.00%  geneva/internal/netsim.(*Network).Run
     0.05s  5.00%   100%      0.05s  5.00%  aeshashbody (inline)
`)
	shares, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"censor": 0.4, "gc": 0.3, "math_rand": 0.2, "netsim": 0.05, "maps": 0.05}
	for g, v := range want {
		if d := shares[g] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share %s = %v, want %v", g, shares[g], v)
		}
	}
}
