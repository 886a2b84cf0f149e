package geneva

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestPublicParseAndEngine(t *testing.T) {
	s, err := Parse(Strategy1.DSL)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, rand.New(rand.NewSource(1)))
	if eng == nil {
		t.Fatal("nil engine")
	}
	if len(AllStrategies()) != 11 {
		t.Errorf("AllStrategies() = %d", len(AllStrategies()))
	}
}

func TestEvasionRateEndToEnd(t *testing.T) {
	base, err := EvasionRate(Simulation{
		Country: China, Protocol: "http", Trials: 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base > 0.2 {
		t.Errorf("no-evasion rate %.2f; the GFW should censor", base)
	}
	withS1, err := EvasionRate(Simulation{
		Country: China, Protocol: "http", Strategy: Strategy1.DSL,
		Trials: 80, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withS1 < 0.35 {
		t.Errorf("Strategy 1 rate %.2f; paper: ~54%%", withS1)
	}
	kz, err := EvasionRate(Simulation{
		Country: Kazakhstan, Protocol: "http", Strategy: Strategy11.DSL,
		Trials: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if kz != 1 {
		t.Errorf("Strategy 11 in Kazakhstan = %.2f, want 1", kz)
	}
}

func TestEvasionRateRejectsBadStrategy(t *testing.T) {
	if _, err := EvasionRate(Simulation{
		Country: China, Protocol: "http", Strategy: "[broken", Trials: 1,
	}); err == nil {
		t.Error("want a parse error")
	}
}

func TestEvasionRateDeterministic(t *testing.T) {
	sim := Simulation{Country: China, Protocol: "ftp", Strategy: Strategy5.DSL, Trials: 30, Seed: 9}
	a, _ := EvasionRate(sim)
	b, _ := EvasionRate(sim)
	if a != b {
		t.Errorf("same seed gave %.3f and %.3f", a, b)
	}
}

func TestPublicEvolve(t *testing.T) {
	if testing.Short() {
		t.Skip("evolution")
	}
	res, err := Evolve(EvolveOptions{
		Country: Kazakhstan, Protocol: "http",
		Population: 40, Generations: 10, TrialsPerEval: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Strategy == nil {
		t.Fatal("no best strategy")
	}
}

func TestPublicEvolveWithStatsAndWorkers(t *testing.T) {
	// Per-call Workers caps the pool; results must not move, and the cache
	// stats must show the engine at work.
	opt := EvolveOptions{
		Country: Kazakhstan, Protocol: "http",
		Population: 12, Generations: 3, TrialsPerEval: 2, Seed: 8,
	}
	opt.Workers = 1
	narrow, nstats, err := EvolveWithStats(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	wide, wstats, err := EvolveWithStats(opt)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Best.Strategy.String() != wide.Best.Strategy.String() ||
		narrow.Best.Fitness != wide.Best.Fitness {
		t.Errorf("worker width changed the result: %q (%v) vs %q (%v)",
			narrow.Best.Strategy, narrow.Best.Fitness, wide.Best.Strategy, wide.Best.Fitness)
	}
	if nstats != wstats {
		t.Errorf("worker width changed cache stats: %+v vs %+v", nstats, wstats)
	}
	if nstats.Misses == 0 || nstats.Lookups() != 12*3 {
		t.Errorf("stats = %+v; want %d lookups and nonzero computations", nstats, 12*3)
	}
}

func TestFacadeRouter(t *testing.T) {
	r := NewRouter(nil)
	if r == nil || r.Flows() != 0 {
		t.Fatal("router construction broken")
	}
}

// TestWorkersWidthInvariance replaces the removed SetWorkers shim's test:
// the per-call Workers knob must not move results at any width.
func TestWorkersWidthInvariance(t *testing.T) {
	sim := Simulation{Country: Kazakhstan, Protocol: "http", Strategy: Strategy11.DSL, Trials: 6, Seed: 3}
	sim.Workers = 3
	a, err := EvasionRate(sim)
	if err != nil {
		t.Fatal(err)
	}
	sim.Workers = 0
	b, err := EvasionRate(sim)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("worker width changed the result: %.3f vs %.3f", a, b)
	}
}

// TestRunStructuredResult: Run must return counts that cohere with each
// other and a manifest carrying the run's config.
func TestRunStructuredResult(t *testing.T) {
	res, err := Run(Simulation{
		Country: China, Protocol: "http", Strategy: Strategy1.DSL,
		Trials: 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 40 {
		t.Errorf("Trials = %d, want 40", res.Trials)
	}
	if res.Succeeded > res.Trials || res.Succeeded > res.Established {
		t.Errorf("incoherent counts: %+v", res)
	}
	if got := float64(res.Succeeded) / float64(res.Trials); res.Rate != got {
		t.Errorf("Rate = %v, want Succeeded/Trials = %v", res.Rate, got)
	}
	if res.Attempts < res.Trials {
		t.Errorf("Attempts = %d < Trials = %d", res.Attempts, res.Trials)
	}
	if res.Manifest.Schema != "geneva-run-manifest/v1" {
		t.Errorf("manifest schema = %q", res.Manifest.Schema)
	}
	if res.Manifest.Config["country"] != China || res.Manifest.Config["trials"] != "40" {
		t.Errorf("manifest config = %v", res.Manifest.Config)
	}
	// EvasionRate is Run reduced to one number.
	rate, err := EvasionRate(Simulation{
		Country: China, Protocol: "http", Strategy: Strategy1.DSL,
		Trials: 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rate != res.Rate {
		t.Errorf("EvasionRate %v != Run().Rate %v", rate, res.Rate)
	}
}

// TestRunRejectsUnknownCountryAndProtocol is the validation regression:
// before the redesign these inputs panicked deep inside the eval harness;
// now they must surface as descriptive errors naming the valid values.
func TestRunRejectsUnknownCountryAndProtocol(t *testing.T) {
	if _, err := Run(Simulation{Country: "narnia", Protocol: "http", Trials: 1}); err == nil {
		t.Error("unknown country: want error, got nil")
	} else if s := err.Error(); !strings.Contains(s, "narnia") || !strings.Contains(s, China) {
		t.Errorf("error should name the bad country and the valid ones: %v", err)
	}
	if _, err := Run(Simulation{Country: China, Protocol: "telnet", Trials: 1}); err == nil {
		t.Error("unknown protocol: want error, got nil")
	} else if s := err.Error(); !strings.Contains(s, "telnet") || !strings.Contains(s, "https") {
		t.Errorf("error should name the bad protocol and the valid ones: %v", err)
	}
	if _, err := EvasionRate(Simulation{Country: "narnia", Protocol: "http", Trials: 1}); err == nil {
		t.Error("EvasionRate with unknown country: want error, got nil")
	}
	if _, err := RunDeployment(Deployment{Countries: []string{"narnia"}, Connections: 1}); err == nil {
		t.Error("RunDeployment with unknown country: want error, got nil")
	}
}

// TestRejectsSilentlyWrongInputs covers inputs that used to run to
// completion with wrong results instead of failing: more clients per cell
// than host addresses (slots alias in the network's client map and their
// connections never establish), impairment probabilities outside [0,1] or
// NaN, negative jitter, a censor shift the workload cannot apply, a negative
// reconnect budget or backoff (which credited uptime beyond lifetime), and
// negative GA sizes (a panic, a crashed worker, or a nil best strategy).
func TestRejectsSilentlyWrongInputs(t *testing.T) {
	nan := math.NaN()
	badImpairments := []struct {
		name string
		imp  Impairments
	}{
		{"loss above one", Impairments{Loss: 2}},
		{"negative duplicate", Impairments{Duplicate: -0.1}},
		{"NaN reorder", Impairments{Reorder: nan}},
		{"negative jitter", Impairments{Jitter: -time.Millisecond}},
	}
	for _, c := range badImpairments {
		if _, err := Run(Simulation{Country: China, Protocol: "http", Trials: 1, Impairments: c.imp}); err == nil {
			t.Errorf("Run with %s: want error, got nil", c.name)
		}
		if _, err := RunDeployment(Deployment{Connections: 8, Impairments: c.imp}); err == nil {
			t.Errorf("RunDeployment with %s: want error, got nil", c.name)
		}
	}
	for _, c := range []struct {
		name string
		d    Deployment
	}{
		{"aliased cell clients", Deployment{Countries: []string{China}, Connections: 600, ClientsPerCell: 2, UnprotectedPerCell: 300}},
		{"negative reconnect budget", Deployment{Connections: 8, Reconnect: ReconnectPolicy{MaxAttempts: -2}}},
		{"shift country outside the workload", Deployment{Connections: 8, Countries: []string{China},
			Shift: CensorShift{Country: "chna", Params: map[string]float64{"prst": 0}}}},
		{"negative shift wave", Deployment{Connections: 8, Shift: CensorShift{AtWave: -1, Params: map[string]float64{"prst": 0}}}},
		{"NaN shift parameter", Deployment{Connections: 8, Shift: CensorShift{Params: map[string]float64{"prst": nan}}}},
		{"infinite shift parameter", Deployment{Connections: 8, Shift: CensorShift{Params: map[string]float64{"residual_s": math.Inf(1)}}}},
		{"negative reconnect backoff", Deployment{Connections: 400, Seed: 3, SessionRequests: 3, RequestGap: 10 * time.Second,
			Reconnect: ReconnectPolicy{Backoff: -time.Hour, RetryAll: true, MaxAttempts: 4}}},
	} {
		if _, err := RunDeployment(c.d); err == nil {
			t.Errorf("RunDeployment with %s: want error, got nil", c.name)
		}
	}
	// A negative size names its field instead of silently running the
	// default.
	if _, err := Run(Simulation{Country: China, Protocol: "http", Trials: -5}); err == nil || !strings.Contains(err.Error(), "Trials") {
		t.Errorf("Run with negative Trials: error %v does not name Trials", err)
	}
	for _, c := range []struct {
		field string
		d     Deployment
	}{
		{"Connections", Deployment{Connections: -5}},
		{"ClientsPerCell", Deployment{Connections: 8, ClientsPerCell: -1}},
		{"WavesPerCell", Deployment{Connections: 8, WavesPerCell: -1}},
		{"SessionRequests", Deployment{Connections: 8, SessionRequests: -3}},
	} {
		if _, err := RunDeployment(c.d); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("RunDeployment with negative %s: error %v does not name %s", c.field, err, c.field)
		}
	}
	for _, c := range []struct {
		name, field string
		opt         EvolveOptions
	}{
		{"negative population", "Population", EvolveOptions{Population: -1}},
		{"negative generations", "Generations", EvolveOptions{Generations: -1}},
		{"negative trials per evaluation", "TrialsPerEval", EvolveOptions{TrialsPerEval: -1}},
	} {
		c.opt.Country, c.opt.Protocol = Kazakhstan, "http"
		if _, _, err := EvolveWithStats(c.opt); err == nil {
			t.Errorf("EvolveWithStats with %s: want error, got nil", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("EvolveWithStats with %s: error %q does not name %s", c.name, err, c.field)
		}
		if _, err := Evolve(c.opt); err == nil {
			t.Errorf("Evolve with %s: want error, got nil", c.name)
		}
	}
	// The largest cell that still fits its address range runs.
	if _, err := RunDeployment(Deployment{Countries: []string{China}, Connections: 8, ClientsPerCell: 4, UnprotectedPerCell: 249}); err != nil {
		t.Errorf("RunDeployment with 253 clients per cell: %v", err)
	}
}
