package genetic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"geneva/internal/core"
)

func TestRandomStrategyIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := RandomStrategy(rng, "SA")
		if len(s.Outbound) != 1 {
			t.Fatal("random strategy must have one outbound rule")
		}
		if s.Outbound[0].Trigger.Value != "SA" {
			t.Fatal("trigger restriction violated")
		}
		// Canonical string must reparse.
		if _, err := core.Parse(s.String()); err != nil {
			t.Fatalf("unparseable random strategy %q: %v", s.String(), err)
		}
	}
}

func TestMutatePreservesValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := RandomStrategy(rng, "SA")
	for i := 0; i < 500; i++ {
		Mutate(rng, s, "SA")
		if len(s.Outbound) == 0 {
			t.Fatal("mutation deleted the rule")
		}
		str := s.String()
		if _, err := core.Parse(str); err != nil {
			t.Fatalf("iteration %d: unparseable %q: %v", i, str, err)
		}
		if s.Outbound[0].Trigger.Value != "SA" {
			t.Fatal("mutation changed the trigger restriction")
		}
	}
}

func TestCrossoverPreservesValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		a := RandomStrategy(rng, "SA")
		b := RandomStrategy(rng, "SA")
		Crossover(rng, a, b.Clone())
		if _, err := core.Parse(a.String()); err != nil {
			t.Fatalf("crossover produced unparseable %q: %v", a.String(), err)
		}
	}
}

func TestMutatedTreesNeverGiveTamperTwoBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	check := func(a *core.Action) bool {
		var ok func(n *core.Action) bool
		ok = func(n *core.Action) bool {
			if n == nil {
				return true
			}
			if n.Kind == core.ActTamper && n.Right != nil {
				return false
			}
			return ok(n.Left) && ok(n.Right)
		}
		return ok(a)
	}
	s := RandomStrategy(rng, "SA")
	for i := 0; i < 1000; i++ {
		Mutate(rng, s, "SA")
		if !check(s.Outbound[0].Action) {
			t.Fatalf("iteration %d: tamper with two branches in %q", i, s.String())
		}
	}
}

func TestEvolveFindsSimpleTarget(t *testing.T) {
	// Fitness rewards emitting a RST before a SYN on the SYN+ACK — the
	// evolution must discover something Strategy-1-shaped. This is a
	// white-box surrogate for the censor-driven fitness used in eval.
	rng := rand.New(rand.NewSource(11))
	fitness := func(s *core.Strategy) float64 {
		str := s.String()
		score := 0.0
		if strings.Contains(str, "tamper{TCP:flags:replace:R}") {
			score += 0.5
		}
		if strings.Contains(str, "duplicate") {
			score += 0.3
		}
		if strings.Contains(str, "tamper{TCP:flags:replace:S}") {
			score += 0.2
		}
		return score
	}
	res := Evolve(Config{
		PopulationSize: 120,
		Generations:    60,
		ConvergeAfter:  -1,
		BatchFitness:   scoreEach(fitness),
		Rng:            rng,
	})
	if res.Best.Fitness < 0.8 {
		t.Fatalf("evolution stalled at fitness %.2f with %q",
			res.Best.Fitness, res.Best.Strategy.String())
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	// Fitness must be non-decreasing for the recorded best.
	prev := -1.0
	for _, g := range res.History {
		if g.Best < prev-1e-9 {
			// The per-generation best can dip (mutation churn), but the
			// running best in res.Best must dominate all of them.
			if g.Best > res.Best.Fitness {
				t.Fatalf("generation best %f exceeds final best %f", g.Best, res.Best.Fitness)
			}
		}
		prev = g.Best
	}
}

func TestEvolveConvergesEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	res := Evolve(Config{
		PopulationSize: 30,
		Generations:    50,
		ConvergeAfter:  3,
		BatchFitness:   scoreEach(func(*core.Strategy) float64 { return 0.5 }), // flat landscape
		Rng:            rng,
	})
	if len(res.History) >= 50 {
		t.Errorf("ran all %d generations despite a flat landscape", len(res.History))
	}
}

func TestEvolveRespectsMaxNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	res := Evolve(Config{
		PopulationSize: 40,
		Generations:    10,
		// Reward bloat to fight the cap.
		BatchFitness: scoreEach(func(s *core.Strategy) float64 { return float64(s.Size()) / 100 }),
		Rng:          rng,
	})
	// The cap is applied pre-evaluation; just ensure no pathological blowup
	// in the final best.
	if res.Best.Strategy.Size() > 40 {
		t.Errorf("best strategy has %d nodes", res.Best.Strategy.Size())
	}
}

func TestCollectSlotsCoversTree(t *testing.T) {
	s := core.MustParse(`[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},tamper{TCP:flags:replace:S})-| \/ `)
	slots := collectSlots(&s.Outbound[0])
	// root + dup.Left + dup.Right + 2 tamper.Left + 2 tamper.Right = 7
	if len(slots) != 7 {
		t.Errorf("collectSlots found %d slots, want 7", len(slots))
	}
}

func TestRandomTreePropertyNoPanics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomStrategy(rng, "SA")
		for i := 0; i < 20; i++ {
			Mutate(rng, s, "SA")
		}
		_, err := core.Parse(s.String())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// scoreEach lifts a per-strategy fitness function to the BatchFitness seam.
func scoreEach(fitness func(*core.Strategy) float64) func([]*core.Strategy) []float64 {
	return func(pop []*core.Strategy) []float64 {
		out := make([]float64, len(pop))
		for i, s := range pop {
			out[i] = fitness(s)
		}
		return out
	}
}

// TestEvolveBatchSeamSeesWholePopulation checks the contract: every
// generation arrives as one call covering the full population, and a
// mis-sized return panics rather than silently misaligning fitness.
func TestEvolveBatchSeamSeesWholePopulation(t *testing.T) {
	calls := 0
	res := Evolve(Config{
		PopulationSize: 25,
		Generations:    4,
		ConvergeAfter:  -1,
		Rng:            rand.New(rand.NewSource(23)),
		BatchFitness: func(pop []*core.Strategy) []float64 {
			calls++
			if len(pop) != 25 {
				t.Fatalf("call %d scored %d strategies, want the full population of 25", calls, len(pop))
			}
			return make([]float64, len(pop))
		},
	})
	if calls != 4 {
		t.Errorf("BatchFitness called %d times for 4 generations", calls)
	}
	if res.Best.Strategy == nil {
		t.Error("no best recorded")
	}

	defer func() {
		if recover() == nil {
			t.Error("short BatchFitness return did not panic")
		}
	}()
	Evolve(Config{
		PopulationSize: 10,
		Generations:    1,
		Rng:            rand.New(rand.NewSource(2)),
		BatchFitness:   func(pop []*core.Strategy) []float64 { return make([]float64, len(pop)-1) },
	})
}

func TestEvolveTriggerExploresTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seen := map[string]bool{}
	s := RandomStrategy(rng, "")
	for i := 0; i < 400; i++ {
		Mutate(rng, s, "")
		seen[s.Outbound[0].Trigger.Value] = true
	}
	if len(seen) < 3 {
		t.Errorf("trigger evolution explored only %v", seen)
	}
	// With a fixed restriction the trigger never moves.
	s2 := RandomStrategy(rng, "SA")
	for i := 0; i < 200; i++ {
		Mutate(rng, s2, "SA")
		if s2.Outbound[0].Trigger.Value != "SA" {
			t.Fatal("restricted trigger mutated")
		}
	}
}
