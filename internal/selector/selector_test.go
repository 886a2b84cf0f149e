package selector

import (
	"errors"
	"math/rand"
	"testing"

	"geneva/internal/core"
	"geneva/internal/strategies"
)

func TestNewPortfolioValidation(t *testing.T) {
	p, err := NewPortfolio(strategies.Strategy1.DSL, strategies.Strategy8.DSL)
	if err != nil {
		t.Fatalf("NewPortfolio: %v", err)
	}
	if p.Len() != 2 || p.IsZero() {
		t.Fatalf("want 2 arms, got %d (zero=%v)", p.Len(), p.IsZero())
	}
	// Canonical round-trip: Name(i) is Parse(text).String().
	for i, text := range []string{strategies.Strategy1.DSL, strategies.Strategy8.DSL} {
		want := core.MustParse(text).String()
		if p.Name(i) != want {
			t.Errorf("arm %d name %q, want %q", i, p.Name(i), want)
		}
	}

	if _, err := NewPortfolio("[TCP:flags:SA]-bogus-|"); !errors.Is(err, core.ErrInvalidStrategy) {
		t.Fatalf("invalid strategy error %v should wrap core.ErrInvalidStrategy", err)
	}
}

// cellWith returns a cell of st holding ds as its wave's observations,
// ready for st.Merge.
func cellWith(st *State, ds ...delta) *Cell {
	c := st.NewCell()
	c.deltas = append(c.deltas, ds...)
	return c
}

func TestPortfolioHashStable(t *testing.T) {
	a, _ := NewPortfolio(strategies.Strategy1.DSL, strategies.Strategy8.DSL)
	b, _ := NewPortfolio(strategies.Strategy1.DSL, strategies.Strategy8.DSL)
	if a.Hash() != b.Hash() {
		t.Fatalf("identical portfolios hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	c, _ := NewPortfolio(strategies.Strategy8.DSL, strategies.Strategy1.DSL)
	if a.Hash() == c.Hash() {
		t.Fatalf("order-swapped portfolio should hash differently")
	}
	if (Portfolio{}).Hash() == a.Hash() {
		t.Fatalf("empty portfolio should not collide with a real one")
	}
}

func TestSelectionDefaultsAndValidate(t *testing.T) {
	if err := (Selection{Policy: "thompson"}).Validate(); err == nil {
		t.Fatal("unknown policy must fail validation")
	}
	for _, p := range []Policy{Pinned, EpsilonGreedy, UCB1} {
		if err := (Selection{Policy: p}).Validate(); err != nil {
			t.Fatalf("%q should validate: %v", p, err)
		}
	}
	if (Selection{}).Enabled() {
		t.Fatal("zero-value Selection must be disabled")
	}
}

// run drives a toy bandit loop: per wave, each of `cells` cells makes
// `pullsPerCell` pulls; arm rewards are deterministic per-arm success
// rates evaluated against a seeded rng. Returns total pulls per arm.
func run(t *testing.T, st *State, rates []float64, waves, cells, pullsPerCell int, seed int64) []uint64 {
	t.Helper()
	views := make([]*Cell, cells)
	rngs := make([]*rand.Rand, cells)
	rewards := make([]*rand.Rand, cells)
	for c := range views {
		views[c] = st.NewCell()
		rngs[c] = rand.New(rand.NewSource(seed + int64(c)*100003))
		rewards[c] = rand.New(rand.NewSource(seed + int64(c)*100003 + 7))
	}
	pulls := make([]uint64, len(rates))
	for w := 0; w < waves; w++ {
		for c := 0; c < cells; c++ {
			for i := 0; i < pullsPerCell; i++ {
				arm := views[c].Next("china", "http", rngs[c])
				pulls[arm]++
				if rewards[c].Float64() < rates[arm] {
					views[c].Observe("china", "http", arm, Served)
				} else {
					views[c].Observe("china", "http", arm, TornDown)
				}
			}
		}
		st.Merge(views)
	}
	return pulls
}

func TestEpsilonGreedyConvergesToBestArm(t *testing.T) {
	st := NewState(Selection{Policy: EpsilonGreedy}, 3)
	pulls := run(t, st, []float64{0.1, 0.9, 0.3}, 20, 2, 10, 42)
	if pulls[1] <= pulls[0] || pulls[1] <= pulls[2] {
		t.Fatalf("best arm (1) should dominate pulls, got %v", pulls)
	}
}

func TestUCB1ConvergesToBestArm(t *testing.T) {
	st := NewState(Selection{Policy: UCB1}, 3)
	pulls := run(t, st, []float64{0.2, 0.35, 0.95}, 20, 2, 10, 42)
	if pulls[2] <= pulls[0] || pulls[2] <= pulls[1] {
		t.Fatalf("best arm (2) should dominate pulls, got %v", pulls)
	}
}

func TestBarrierFoldIsOrderIndependent(t *testing.T) {
	// Two states fed the same per-cell deltas in different cell orders
	// must end bit-identical: the fold is integer addition per (key, arm).
	mk := func(order []int) *State {
		st := NewState(Selection{Policy: EpsilonGreedy}, 2)
		cellDeltas := []delta{
			{k: key{"china", "http"}, arm: 0, pulls: 5, served: 3, torn: 2},
			{k: key{"china", "http"}, arm: 1, pulls: 4, served: 1, unest: 3},
			{k: key{"china", "http"}, arm: 0, pulls: 2, served: 2},
		}
		ordered := make([]*Cell, 0, len(order))
		for _, i := range order {
			ordered = append(ordered, cellWith(st, cellDeltas[i]))
		}
		st.Merge(ordered)
		return st
	}
	a, b := mk([]int{0, 1, 2}), mk([]int{2, 0, 1})
	ka := key{"china", "http"}
	for arm := 0; arm < 2; arm++ {
		if a.stats[ka][arm] != b.stats[ka][arm] {
			t.Fatalf("arm %d diverged across fold orders: %+v vs %+v",
				arm, a.stats[ka][arm], b.stats[ka][arm])
		}
	}
}

func TestDecayForgetsOldEvidence(t *testing.T) {
	st := NewState(Selection{Policy: EpsilonGreedy}, 1)
	k := key{"china", "http"}
	st.Merge([]*Cell{cellWith(st, delta{k: k, arm: 0, pulls: 8, served: 8})})
	if got := st.stats[k][0].pulls; got != 8 {
		t.Fatalf("after first barrier want 8 decayed pulls, got %v", got)
	}
	// Two empty barriers decay the window twice; lifetime totals hold.
	st.Merge(nil)
	st.Merge(nil)
	d := float64(decay)
	if got, want := st.stats[k][0].pulls, 8*d*d; got != want {
		t.Fatalf("after two decays want %v, got %v", want, got)
	}
	if st.stats[k][0].totalPulls != 8 {
		t.Fatalf("lifetime pulls must not decay")
	}
}

func TestCollapseQuarantineAndRecovery(t *testing.T) {
	st := NewState(Selection{Policy: EpsilonGreedy}, 2)
	k := key{"china", "http"}

	// Arm 0 earns incumbency with a healthy window.
	st.Merge([]*Cell{cellWith(st,
		delta{k: k, arm: 0, pulls: 10, served: 9},
		delta{k: k, arm: 1, pulls: 2, served: 1},
	)})
	if st.Fallbacks() != 0 {
		t.Fatalf("healthy incumbent must not trip the detector")
	}

	// The censor shifts: the incumbent craters (0/40 served).
	st.Merge([]*Cell{cellWith(st, delta{k: k, arm: 0, pulls: 40, torn: 40})})
	if st.Fallbacks() != 1 || st.stats[k][0].quarantine != quarantineWaves {
		t.Fatalf("fallback not recorded: fallbacks=%d stats=%+v", st.Fallbacks(), st.stats[k][0])
	}
	if st.stats[k][0].pulls != 0 || st.stats[k][0].wins != 0 {
		t.Fatalf("quarantined arm's window must be zeroed: %+v", st.stats[k][0])
	}

	// While quarantined, cells never pick arm 0.
	c := st.NewCell()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if arm := c.Next("china", "http", rng); arm == 0 {
			t.Fatalf("pull %d selected quarantined arm", i)
		}
	}
	c.deltas = c.deltas[:0]

	// Quarantine expires after quarantineWaves (2) barriers (decremented
	// at the first barrier after quarantine, selectable once it hits zero).
	st.Merge(nil)
	if st.stats[k][0].quarantine != 1 {
		t.Fatalf("quarantine should tick down to 1, got %d", st.stats[k][0].quarantine)
	}
	st.Merge(nil)
	if st.stats[k][0].quarantine != 0 {
		t.Fatalf("quarantine should expire, got %d", st.stats[k][0].quarantine)
	}
	// Re-eligible: with a zeroed window the optimistic prior lets the
	// returning arm be exploited again.
	picked := false
	rng2 := rand.New(rand.NewSource(2))
	for i := 0; i < 50 && !picked; i++ {
		picked = c.Next("china", "http", rng2) == 0
	}
	if !picked {
		t.Fatal("expired quarantine should make arm 0 selectable again")
	}
}

func TestCollapseDetectorBoundaries(t *testing.T) {
	k := key{"china", "http"}
	// judge merges one wave where arm 0 is the sole incumbent with the
	// given evidence and reports the state.
	judge := func(pulls, served uint64) *State {
		st := NewState(Selection{Policy: EpsilonGreedy}, 2)
		st.Merge([]*Cell{cellWith(st, delta{k: k, arm: 0, pulls: pulls, served: served, torn: pulls - served})})
		return st
	}

	// Below minPulls of evidence the incumbent is not judged, even at 0%.
	if st := judge(minPulls-1, 0); st.Fallbacks() != 0 || st.stats[k][0].quarantine != 0 {
		t.Fatalf("%v pulls at 0%% must not be judged: %+v", minPulls-1, st.stats[k][0])
	}
	if st := judge(minPulls, 0); st.Fallbacks() != 1 {
		t.Fatalf("%v pulls at 0%% must be judged and quarantined: %+v", minPulls, st.stats[k][0])
	}

	// A windowed rate of exactly collapseBelow stays in service.
	if st := judge(10, 2); st.Fallbacks() != 0 || st.stats[k][0].pulls != 10 {
		t.Fatalf("rate 2/10 = collapseBelow must stay in service: %+v", st.stats[k][0])
	}

	// Just below it, the incumbent sits out quarantineWaves barriers.
	st := judge(1000, 199)
	if st.Fallbacks() != 1 || st.stats[k][0].quarantine != quarantineWaves {
		t.Fatalf("rate 199/1000 must quarantine for %d barriers: %+v", quarantineWaves, st.stats[k][0])
	}
	for w := quarantineWaves; w > 0; w-- {
		if got := st.stats[k][0].quarantine; got != w {
			t.Fatalf("want %d barriers left, got %d", w, got)
		}
		st.Merge(nil)
	}
	if got := st.stats[k][0].quarantine; got != 0 {
		t.Fatalf("quarantine should have expired after %d barriers, got %d left", quarantineWaves, got)
	}
}

func TestSingleArmPortfolioAlwaysPinsArmZero(t *testing.T) {
	st := NewState(Selection{Policy: UCB1}, 1)
	c := st.NewCell()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		if arm := c.Next("china", "http", rng); arm != 0 {
			t.Fatalf("single-arm portfolio must pin arm 0, got %d", arm)
		}
	}
}

func TestCountryReportSumsProtocols(t *testing.T) {
	st := NewState(Selection{Policy: EpsilonGreedy}, 2)
	st.Merge([]*Cell{cellWith(st,
		delta{k: key{"china", "http"}, arm: 0, pulls: 3, served: 2, torn: 1},
		delta{k: key{"china", "https"}, arm: 0, pulls: 2, served: 2},
		delta{k: key{"china", "https"}, arm: 1, pulls: 1, unest: 1},
		delta{k: key{"iran", "http"}, arm: 1, pulls: 9, served: 9},
	)})
	rep := st.CountryReport("china")
	if rep[0] != (ArmReport{Pulls: 5, Served: 4, TornDown: 1}) {
		t.Fatalf("china arm 0 report %+v", rep[0])
	}
	if rep[1] != (ArmReport{Pulls: 1, Unestablished: 1}) {
		t.Fatalf("china arm 1 report %+v", rep[1])
	}
}
