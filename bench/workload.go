package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"geneva"
	"geneva/internal/eval"
	"geneva/internal/genetic"
)

// workerCount pins both GOMAXPROCS and the program's worker pools.
const workerCount = 2

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fleet-oneshot", "fleet-smallcell", "fleet-session", "evolve-kazakhstan-http"}

//go:embed reference.json
var referenceJSON []byte

// reference is bench/reference.json: the served fraction each fleet
// workload, and the best fitness the training workload, must reproduce at
// full size, with the host facts and latest numbers of the runs that
// recorded them.
type reference struct {
	Outcome   map[string]float64 `json:"outcome"`
	Tolerance float64            `json:"outcome_tolerance"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// evolveSpec is the training workload: genetic.Evolve scored by an
// eval.Evaluator, with early stopping off so every seed does the same
// number of generations.
type evolveSpec struct {
	country, protocol string
	population        int
	generations       int
	trials            int
}

// workload is one benchmark input, built from the seed. Exactly one of
// fleet and evolve is set.
type workload struct {
	name  string
	seed  int64
	scale int
	fleet *geneva.Deployment
	evol  *evolveSpec
	// refOutcome is the served fraction (fleet) or best fitness (training)
	// a full-size run must reproduce within tol; tol 0 disables the check
	// (reduced sizes).
	refOutcome, tol float64
}

// newWorkload builds workload name for seed. scale divides the workload's
// size: 1 is the benchmark, larger values give the reduced sizes tests use.
func newWorkload(name string, seed int64, scale int) (*workload, error) {
	if scale < 1 {
		return nil, fmt.Errorf("scale %d < 1", scale)
	}
	w := &workload{name: name, seed: seed, scale: scale}
	oneshot := geneva.Deployment{
		Countries:          []string{geneva.China, geneva.India, geneva.Iran, geneva.Kazakhstan},
		Protocols:          []string{"http", "https", "dns"},
		Connections:        100_000 / scale,
		ClientsPerCell:     16,
		WavesPerCell:       32,
		UnprotectedPerCell: 1,
		WaveGap:            120 * time.Second,
		SessionRequests:    1,
		Seed:               seed,
	}
	switch name {
	case "fleet-oneshot":
		w.fleet = &oneshot
	case "fleet-smallcell":
		w.fleet = &geneva.Deployment{
			Countries:          geneva.Countries(),
			Protocols:          []string{"dns", "ftp", "http", "https", "smtp"},
			Connections:        40_000 / scale,
			ClientsPerCell:     4,
			WavesPerCell:       4,
			UnprotectedPerCell: 1,
			WaveGap:            120 * time.Second,
			SessionRequests:    1,
			Seed:               seed,
		}
	case "fleet-session":
		p, err := geneva.NewPortfolio(geneva.Strategy1.DSL, geneva.Strategy2.DSL, geneva.Strategy11.DSL)
		if err != nil {
			return nil, err
		}
		d := oneshot
		d.Connections = 30_000 / scale
		d.SessionRequests = 3
		d.RequestGap = 40 * time.Second
		d.WaveGap = 60 * time.Second
		d.Reconnect = geneva.ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true}
		d.Portfolio = p
		d.Selection = geneva.Selection{Policy: geneva.EpsilonGreedy}
		d.Shift = geneva.CensorShift{AtWave: 8, Country: geneva.China, Params: map[string]float64{"prst": 0}}
		w.fleet = &d
	case "evolve-kazakhstan-http":
		w.evol = &evolveSpec{
			country:     geneva.Kazakhstan,
			protocol:    "http",
			population:  max(300/scale, 12),
			generations: max(15/scale, 3),
			trials:      10,
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
	}
	if scale == 1 {
		ref, err := loadReference()
		if err != nil {
			return nil, err
		}
		v, ok := ref.Outcome[name]
		if !ok {
			return nil, fmt.Errorf("reference.json has no outcome for %s", name)
		}
		w.refOutcome, w.tol = v, ref.Tolerance
	}
	return w, nil
}

// evolveOutcome is the training run's result in canonical form.
type evolveOutcome struct {
	BestDSL     string             `json:"best_dsl"`
	BestFitness float64            `json:"best_fitness"`
	History     []genetic.GenStats `json:"history"`
	Stats       eval.EvalStats     `json:"stats"`
}

// outcome is one run of the program.
type outcome struct {
	// ops counts the run's work: planned connections on fleet workloads,
	// computed fitness evaluations (cache misses) on the training workload.
	ops    int
	digest []byte
	fleet  geneva.FleetResult
	evol   evolveOutcome
}

// run executes the program once on workers workers.
func (w *workload) run(workers int) (outcome, error) {
	if w.fleet != nil {
		d := *w.fleet
		d.Workers = workers
		res, err := geneva.RunDeployment(d)
		if err != nil {
			return outcome{}, err
		}
		digest, err := json.Marshal(res)
		if err != nil {
			return outcome{}, err
		}
		return outcome{ops: res.Connections, digest: digest, fleet: res}, nil
	}
	s := w.evol
	ev := eval.NewEvaluator(s.country, s.protocol, s.trials, w.seed)
	ev.Workers = workers
	res := genetic.Evolve(genetic.Config{
		PopulationSize: s.population,
		Generations:    s.generations,
		TriggerValue:   "SA",
		ConvergeAfter:  -1,
		Rng:            rand.New(rand.NewSource(w.seed)),
		BatchFitness:   ev.BatchFitness,
	})
	o := evolveOutcomeOf(res, ev.Stats())
	digest, err := json.Marshal(o)
	if err != nil {
		return outcome{}, err
	}
	return outcome{ops: o.Stats.Misses, digest: digest, evol: o}, nil
}

func evolveOutcomeOf(res genetic.Result, st eval.EvalStats) evolveOutcome {
	return evolveOutcome{
		BestDSL:     res.Best.Strategy.String(),
		BestFitness: res.Best.Fitness,
		History:     res.History,
		Stats:       st,
	}
}

// check validates one run's outputs on their own; byte identity across runs
// is checked by the caller.
func (w *workload) check(o outcome) error {
	if o.ops < 1 {
		return fmt.Errorf("no work done")
	}
	var err error
	if w.fleet != nil {
		err = w.checkFleet(o.fleet)
	} else {
		err = w.checkEvolve(o.evol)
	}
	if v := o.value(); err == nil && w.tol > 0 && math.Abs(v-w.refOutcome) > w.tol {
		err = fmt.Errorf("outcome %.4f outside the reference %.4f ± %.2f", v, w.refOutcome, w.tol)
	}
	return err
}

func (w *workload) checkFleet(r geneva.FleetResult) error {
	if r.Connections != w.fleet.Connections {
		return fmt.Errorf("connections %d, planned %d", r.Connections, w.fleet.Connections)
	}
	if r.Succeeded > r.Connections {
		return fmt.Errorf("served %d > connections %d", r.Succeeded, r.Connections)
	}
	if r.RequestsServed > r.RequestsAttempted {
		return fmt.Errorf("requests served %d > attempted %d", r.RequestsServed, r.RequestsAttempted)
	}
	if a := r.Availability(); a < 0 || a > 1 || math.IsNaN(a) {
		return fmt.Errorf("availability %v outside [0,1]", a)
	}
	var conns, served, reqA, reqS int
	for c, cs := range r.PerCountry {
		if cs.Succeeded > cs.Connections || cs.RequestsServed > cs.RequestsAttempted {
			return fmt.Errorf("%s: served exceeds attempted", c)
		}
		if a := cs.Availability(); a < 0 || a > 1 || math.IsNaN(a) {
			return fmt.Errorf("%s: availability %v outside [0,1]", c, a)
		}
		conns += cs.Connections
		served += cs.Succeeded
		reqA += cs.RequestsAttempted
		reqS += cs.RequestsServed
	}
	if conns != r.Connections || served != r.Succeeded || reqA != r.RequestsAttempted || reqS != r.RequestsServed {
		return fmt.Errorf("per-country sums (%d conns, %d served, %d/%d requests) differ from totals (%d, %d, %d/%d)",
			conns, served, reqS, reqA, r.Connections, r.Succeeded, r.RequestsServed, r.RequestsAttempted)
	}
	if n := r.Outcomes["served"] + r.Outcomes["torn_down"] + r.Outcomes["never_established"]; n != r.Connections {
		return fmt.Errorf("outcome mix sums to %d, connections %d", n, r.Connections)
	}
	return nil
}

func (w *workload) checkEvolve(o evolveOutcome) error {
	s := w.evol
	if want := s.population * s.generations; o.Stats.Lookups() != want {
		return fmt.Errorf("scored %d individuals, want %d", o.Stats.Lookups(), want)
	}
	if o.Stats.Entries != o.Stats.Misses {
		return fmt.Errorf("cache holds %d entries after %d computations", o.Stats.Entries, o.Stats.Misses)
	}
	if len(o.History) != s.generations {
		return fmt.Errorf("%d generations recorded, want %d", len(o.History), s.generations)
	}
	if o.BestFitness > 1 || math.IsNaN(o.BestFitness) {
		return fmt.Errorf("best fitness %v above 1", o.BestFitness)
	}
	return nil
}

// value is the run's headline outcome: the fleet's served fraction, or the
// training run's best fitness.
func (o outcome) value() float64 {
	if o.fleet.Connections == 0 {
		return o.evol.BestFitness
	}
	return float64(o.fleet.Succeeded) / float64(o.fleet.Connections)
}
