// Package selector is the fleet's online strategy-selection control plane:
// a deterministic, seeded bandit that picks each connection's server-side
// strategy from a portfolio and learns from per-connection outcomes.
//
// The paper's §8 deployment pins one evolved strategy per censored country.
// That is the right opening move and the wrong steady state: censors shift
// (the arms-race framing of the co-evolution roadmap item), and a pinned
// strategy that collapses takes the whole country's availability down with
// it. The selector closes the loop the fleet already measures: every
// connection attempt reports served / torn down / never-established, and
// the selector turns that stream into the next attempt's strategy choice.
//
// # Determinism contract
//
// The selector is one more seeded component of the fleet, subject to the
// same bit-identity contract as everything else: a FleetResult must be
// identical at any worker width. That shapes the design exactly
// like the residual ledger:
//
//   - Global state (State) only changes at wave barriers, on one
//     goroutine, in stable cell order.
//   - During a wave each cell sees the barrier snapshot plus only its OWN
//     observations (a Cell), accumulated as plain integer counts. A cell
//     never sees a concurrent cell's intra-wave outcomes, so scheduling
//     cannot leak in.
//   - Exploration randomness comes from a per-cell seeded rng stream
//     (derived from the cell's stable plan index), never from shared state.
//   - The barrier fold is integer addition per (key, arm) — commutative and
//     associative — followed by one deterministic decay-and-detect pass.
//
// # Policies
//
// Two classic bandit policies sit behind one Selection config: epsilon-
// greedy (explore with probability ε, otherwise exploit the best decayed
// success rate) and UCB1 (optimism in the face of uncertainty; pulls every
// arm once, then maximizes mean + C·sqrt(ln N / n)). Both operate on an
// exponentially decayed window so old evidence ages out, and both honor the
// collapse fallback: when the incumbent arm's windowed success rate craters
// below a threshold, it is quarantined for a few waves — its statistics
// zeroed so it re-earns trust — and the survivors are re-explored. That
// fallback is what turns a mid-run censor shift from a permanent outage
// into a few waves of degraded service.
package selector

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"geneva/internal/core"
)

// Portfolio is an ordered, validated list of candidate strategies — the
// unit of deployment the public API trades in. Construction parses every
// strategy once (NewPortfolio); the compiled *core.Strategy values are
// shared read-only by every engine built from the portfolio, exactly like
// the §8 deployment table. The zero value is the empty portfolio.
type Portfolio struct {
	strats []*core.Strategy
	dsls   []string // canonical texts, memoized at construction
}

// NewPortfolio parses and compiles each strategy, in order. Any strategy
// that fails to parse aborts construction with an error wrapping
// core.ErrInvalidStrategy (position in the portfolio included).
func NewPortfolio(dsls ...string) (Portfolio, error) {
	p := Portfolio{
		strats: make([]*core.Strategy, 0, len(dsls)),
		dsls:   make([]string, 0, len(dsls)),
	}
	for i, dsl := range dsls {
		s, err := core.Parse(dsl)
		if err != nil {
			return Portfolio{}, fmt.Errorf("portfolio strategy %d: %w", i, err)
		}
		p.strats = append(p.strats, s)
		p.dsls = append(p.dsls, s.String())
	}
	return p, nil
}

// FromStrategies builds a portfolio from already-compiled strategies (the
// registry path: the deploy table is parsed once at init and shared).
func FromStrategies(strats []*core.Strategy) Portfolio {
	p := Portfolio{
		strats: make([]*core.Strategy, len(strats)),
		dsls:   make([]string, len(strats)),
	}
	for i, s := range strats {
		p.strats[i] = s
		p.dsls[i] = s.String()
	}
	return p
}

// Len is the number of strategies (arms).
func (p Portfolio) Len() int { return len(p.strats) }

// IsZero reports whether the portfolio is empty (the zero value).
func (p Portfolio) IsZero() bool { return len(p.strats) == 0 }

// Strategy returns the i-th compiled strategy. The value is shared
// read-only; engines compile their own rule copies.
func (p Portfolio) Strategy(i int) *core.Strategy { return p.strats[i] }

// Strategies returns the canonical strategy texts in portfolio order.
func (p Portfolio) Strategies() []string {
	out := make([]string, len(p.dsls))
	copy(out, p.dsls)
	return out
}

// Name returns the i-th strategy's canonical text (the key selection
// outcomes are reported under).
func (p Portfolio) Name(i int) string { return p.dsls[i] }

// Hash is a stable FNV-64a digest of the canonical strategy texts in
// order — the manifest's portfolio identity. Two portfolios hash equal iff
// their canonical programs and order agree.
func (p Portfolio) Hash() string {
	h := fnv.New64a()
	for _, d := range p.dsls {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Policy names a selection policy. The zero value disables selection (the
// historical pinned-strategy deployment).
type Policy string

const (
	// Pinned is the zero value: no online selection, the §8 pinned router.
	Pinned Policy = ""
	// EpsilonGreedy explores with probability Epsilon and otherwise
	// exploits the best decayed success rate.
	EpsilonGreedy Policy = "epsilon-greedy"
	// UCB1 plays the classic upper-confidence-bound rule: try every arm
	// once, then maximize mean + C·sqrt(ln N / n).
	UCB1 Policy = "ucb1"
)

// Valid reports whether p names a known policy (including Pinned).
func (p Policy) Valid() bool {
	switch p {
	case Pinned, EpsilonGreedy, UCB1:
		return true
	}
	return false
}

// Selection configures the control plane. The zero value disables it
// entirely — the fleet reproduces the pinned-strategy deployment byte for
// byte. Every other field has a working default resolved by WithDefaults.
type Selection struct {
	// Policy picks the bandit rule; "" (Pinned) disables selection.
	Policy Policy
	// Epsilon is EpsilonGreedy's exploration probability in [0,1]
	// (default 0.1). Ignored by UCB1.
	Epsilon float64
	// UCBC is UCB1's exploration coefficient (default 1.5). Ignored by
	// EpsilonGreedy.
	UCBC float64
	// Decay is the per-wave-barrier multiplier applied to every arm's
	// decayed pull/win window, in (0,1] (default 0.9). Lower values forget
	// faster and react to censor shifts sooner; 1.0 never forgets.
	Decay float64
	// MinPulls is the decayed evidence an arm needs before the collapse
	// detector will judge it (default 3).
	MinPulls float64
	// CollapseBelow is the windowed success rate under which the incumbent
	// (most-pulled) arm is declared collapsed and quarantined (default 0.2).
	CollapseBelow float64
	// QuarantineWaves is how many wave barriers a collapsed arm sits out
	// before it may be selected again (default 2). Its statistics are
	// zeroed on quarantine, so a returning arm re-earns trust from scratch.
	QuarantineWaves int
}

// Enabled reports whether online selection is on.
func (s Selection) Enabled() bool { return s.Policy != Pinned }

// WithDefaults resolves zero-valued tuning fields to the documented
// defaults. It returns a copy.
func (s Selection) WithDefaults() Selection {
	if s.Epsilon <= 0 {
		s.Epsilon = 0.1
	}
	if s.UCBC <= 0 {
		s.UCBC = 1.5
	}
	if s.Decay <= 0 || s.Decay > 1 {
		s.Decay = 0.9
	}
	if s.MinPulls <= 0 {
		s.MinPulls = 3
	}
	if s.CollapseBelow <= 0 {
		s.CollapseBelow = 0.2
	}
	if s.QuarantineWaves <= 0 {
		s.QuarantineWaves = 2
	}
	return s
}

// Validate rejects configurations the selector cannot run.
func (s Selection) Validate() error {
	if !s.Policy.Valid() {
		return fmt.Errorf("selector: unknown policy %q (valid: %q, %q)",
			string(s.Policy), string(EpsilonGreedy), string(UCB1))
	}
	// NaN passes every range check below and WithDefaults, then poisons
	// every decayed window.
	for _, v := range []float64{s.Epsilon, s.UCBC, s.Decay, s.MinPulls, s.CollapseBelow} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("selector: tuning values must be finite: %+v", s)
		}
	}
	if s.Epsilon < 0 || s.Epsilon > 1 {
		return fmt.Errorf("selector: Epsilon %v outside [0,1]", s.Epsilon)
	}
	if s.Decay < 0 || s.Decay > 1 {
		return fmt.Errorf("selector: Decay %v outside (0,1]", s.Decay)
	}
	return nil
}

// Outcome is one connection attempt's settled result, the selector's
// reward signal. Only Served rewards; the failure kinds are kept distinct
// because the per-country selection report (and future cost models) care
// whether a strategy's failures are teardowns or blackholes.
type Outcome int

const (
	// Served: the attempt delivered its whole (remaining) session.
	Served Outcome = iota
	// TornDown: the attempt established and was then censored or corrupted.
	TornDown
	// Unestablished: the handshake never completed.
	Unestablished
)

// armStats is one arm's decayed evidence window plus lifetime totals.
type armStats struct {
	// pulls/wins are the exponentially decayed window the policies and the
	// collapse detector read. Decay happens only at barriers.
	pulls float64
	wins  float64
	// lifetime outcome totals (undecayed), for reporting.
	totalPulls    uint64
	totalServed   uint64
	totalTorn     uint64
	totalUnest    uint64
	quarantine    int // barriers left to sit out; 0 = selectable
	everCollapsed bool
}

// key identifies one selector instance: a (country, protocol) pair.
type key struct{ country, protocol string }

// State is the merged control-plane state for one fleet run: per
// (country, protocol), per arm, the decayed evidence window and quarantine
// status. It is written only at wave barriers on a single goroutine;
// during waves the cells read it as an immutable snapshot.
type State struct {
	sel   Selection
	arms  int
	stats map[key][]armStats
	// fallbacks counts collapse-quarantine events over the whole run.
	fallbacks uint64
	// scratch is Merge's reusable per-barrier delta table.
	scratch [][]delta
}

// NewState builds the run's control-plane state for a portfolio of `arms`
// strategies. sel must already be validated; defaults are resolved here.
func NewState(sel Selection, arms int) *State {
	return &State{
		sel:   sel.WithDefaults(),
		arms:  arms,
		stats: make(map[key][]armStats),
	}
}

// Arms returns the portfolio width the state was built for.
func (st *State) Arms() int { return st.arms }

// Fallbacks returns the number of collapse-quarantine events so far.
func (st *State) Fallbacks() uint64 { return st.fallbacks }

// armsFor returns (allocating on first use) the arm table for a key.
func (st *State) armsFor(k key) []armStats {
	if a, ok := st.stats[k]; ok {
		return a
	}
	a := make([]armStats, st.arms)
	st.stats[k] = a
	return a
}

// delta is a cell's intra-wave observation batch for one (key, arm):
// plain integer counts, so the barrier fold is exact in any order.
type delta struct {
	k       key
	arm     int
	pulls   uint64
	served  uint64
	torn    uint64
	unest   uint64
}

// Cell is one cell's view of the control plane for one wave: the barrier
// snapshot (read-only, shared) plus the cell's own observations. A Cell is
// single-goroutine state, like everything else inside a cell.
type Cell struct {
	st     *State // snapshot: read-only during the wave
	deltas []delta
	// eligible is pick's reusable non-quarantined-arm scratch; a fresh
	// slice per pull would be the control plane's only per-attempt heap
	// allocation.
	eligible []int
}

// NewCell hands a cell its per-wave view. The same Cell may be reused
// across waves (the fleet keeps one per cell); Drain empties it at each
// barrier.
func (st *State) NewCell() *Cell {
	return &Cell{st: st}
}

// deltaFor finds or creates the cell's accumulator for (k, arm). Linear
// scan: a cell touches one country and a handful of protocols × arms.
func (c *Cell) deltaFor(k key, arm int) *delta {
	for i := range c.deltas {
		if c.deltas[i].arm == arm && c.deltas[i].k == k {
			return &c.deltas[i]
		}
	}
	c.deltas = append(c.deltas, delta{k: k, arm: arm})
	return &c.deltas[len(c.deltas)-1]
}

// view is the merged evidence the policies read: snapshot + the cell's own
// intra-wave counts (so a cell learns from its own earlier waves' barrier
// state and its own current-wave attempts, never from concurrent cells).
func (c *Cell) view(k key, arm int) (pulls, wins float64) {
	var snap armStats
	if a, ok := c.st.stats[k]; ok {
		snap = a[arm]
	}
	pulls, wins = snap.pulls, snap.wins
	for i := range c.deltas {
		if c.deltas[i].arm == arm && c.deltas[i].k == k {
			pulls += float64(c.deltas[i].pulls)
			wins += float64(c.deltas[i].served)
		}
	}
	return pulls, wins
}

// quarantined reports whether an arm is sitting out (from the snapshot;
// quarantine only changes at barriers).
func (c *Cell) quarantined(k key, arm int) bool {
	if a, ok := c.st.stats[k]; ok {
		return a[arm].quarantine > 0
	}
	return false
}

// Next picks the arm for one connection attempt in (country, protocol),
// drawing exploration randomness from the cell's own seeded rng. It also
// counts the pull, so consecutive calls within a wave see each other.
func (c *Cell) Next(country, protocol string, rng *rand.Rand) int {
	k := key{country: country, protocol: protocol}
	arm := c.pick(k, rng)
	c.deltaFor(k, arm).pulls++
	return arm
}

// pick implements the two policies over the cell's merged view.
func (c *Cell) pick(k key, rng *rand.Rand) int {
	n := c.st.arms
	if n == 1 {
		return 0
	}
	// Eligible arms: everything not quarantined. If quarantine somehow
	// swallowed every arm (a portfolio of one collapsed strategy), fall
	// back to all arms — serving something beats serving nothing.
	eligible := c.eligible[:0]
	for a := 0; a < n; a++ {
		if !c.quarantined(k, a) {
			eligible = append(eligible, a)
		}
	}
	if len(eligible) == 0 {
		for a := 0; a < n; a++ {
			eligible = append(eligible, a)
		}
	}
	c.eligible = eligible

	switch c.st.sel.Policy {
	case UCB1:
		// Pull every eligible arm once first, in index order.
		var total float64
		for _, a := range eligible {
			p, _ := c.view(k, a)
			if p == 0 {
				return a
			}
			total += p
		}
		best, bestV := eligible[0], math.Inf(-1)
		lnN := math.Log(total + 1)
		for _, a := range eligible {
			p, w := c.view(k, a)
			v := w/p + c.st.sel.UCBC*math.Sqrt(lnN/p)
			if v > bestV {
				best, bestV = a, v
			}
		}
		return best
	default: // EpsilonGreedy
		if rng.Float64() < c.st.sel.Epsilon {
			return eligible[rng.Intn(len(eligible))]
		}
		// Exploit: best decayed mean; unpulled arms count as mean 1 (an
		// optimistic prior, so new and un-collapsed arms get tried).
		// Ties break to the lowest index — deterministic.
		best, bestV := eligible[0], math.Inf(-1)
		for _, a := range eligible {
			p, w := c.view(k, a)
			mean := 1.0
			if p > 0 {
				mean = w / p
			}
			if mean > bestV {
				best, bestV = a, mean
			}
		}
		return best
	}
}

// Observe records one settled attempt's outcome for the arm that served it.
func (c *Cell) Observe(country, protocol string, arm int, o Outcome) {
	d := c.deltaFor(key{country: country, protocol: protocol}, arm)
	switch o {
	case Served:
		d.served++
	case TornDown:
		d.torn++
	default:
		d.unest++
	}
}

// Drain empties the cell's accumulated deltas into the caller's hands (for
// the barrier fold) and resets the cell for the next wave, keeping
// capacity. The returned slice is valid until the cell's next use.
func (c *Cell) Drain() []delta {
	out := c.deltas
	c.deltas = c.deltas[:0]
	return out
}

// Barrier folds one wave's cell observations into the state and runs the
// decay and collapse-detection pass. Call on a single goroutine with the
// cells' deltas in stable cell order (the fleet passes cell-index order);
// because the per-(key,arm) fold is integer addition, any order produces
// the same state, but the stable order keeps the iteration obviously
// deterministic. Returns the number of arms newly quarantined (fallbacks).
func (st *State) Barrier(cellDeltas [][]delta) int {
	// 1. Decay every live window (the sliding-window forgetting step).
	for _, arms := range st.stats {
		for i := range arms {
			arms[i].pulls *= st.sel.Decay
			arms[i].wins *= st.sel.Decay
		}
	}
	// 2. Fold the wave's integer deltas in.
	for _, ds := range cellDeltas {
		for _, d := range ds {
			arms := st.armsFor(d.k)
			a := &arms[d.arm]
			a.pulls += float64(d.pulls)
			a.wins += float64(d.served)
			a.totalPulls += d.pulls
			a.totalServed += d.served
			a.totalTorn += d.torn
			a.totalUnest += d.unest
			mPulls.Add(d.pulls)
			mRewards.Add(d.served)
		}
	}
	// 3. Quarantine bookkeeping and collapse detection, per key in sorted
	// order (map iteration order must not leak into anything observable).
	newQuarantines := 0
	for _, k := range st.sortedKeys() {
		arms := st.stats[k]
		for i := range arms {
			if arms[i].quarantine > 0 {
				arms[i].quarantine--
			}
		}
		// The incumbent is the most-pulled arm of the decayed window (ties
		// to the lowest index). If its windowed success rate has cratered,
		// quarantine it and zero its window so re-entry re-earns trust.
		inc, incPulls := -1, 0.0
		for i := range arms {
			if arms[i].quarantine == 0 && arms[i].pulls > incPulls {
				inc, incPulls = i, arms[i].pulls
			}
		}
		if inc >= 0 && incPulls >= st.sel.MinPulls {
			if rate := arms[inc].wins / arms[inc].pulls; rate < st.sel.CollapseBelow {
				arms[inc].quarantine = st.sel.QuarantineWaves
				arms[inc].pulls = 0
				arms[inc].wins = 0
				arms[inc].everCollapsed = true
				st.fallbacks++
				newQuarantines++
				mFallbacks.Inc()
			}
		}
	}
	return newQuarantines
}

// Merge is the fleet-facing barrier entry point: it drains each cell's
// wave observations — in the caller's stable cell order — and folds them
// through Barrier. nil entries (cells without selection, e.g. uncensored
// populations) are skipped. Call on a single goroutine between waves.
func (st *State) Merge(cells []*Cell) int {
	st.scratch = st.scratch[:0]
	for _, c := range cells {
		if c != nil {
			st.scratch = append(st.scratch, c.Drain())
		}
	}
	return st.Barrier(st.scratch)
}

// sortedKeys returns the state's keys in stable (country, protocol) order.
func (st *State) sortedKeys() []key {
	keys := make([]key, 0, len(st.stats))
	for k := range st.stats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].country != keys[j].country {
			return keys[i].country < keys[j].country
		}
		return keys[i].protocol < keys[j].protocol
	})
	return keys
}

// ArmReport is one arm's lifetime outcome totals for one country (summed
// over the country's protocols) — the selection table's row.
type ArmReport struct {
	Pulls         uint64 `json:"pulls"`
	Served        uint64 `json:"served"`
	TornDown      uint64 `json:"torn_down"`
	Unestablished uint64 `json:"unestablished"`
}

// CountryReport sums a country's lifetime per-arm outcomes across its
// protocols, indexed by arm. Arms never pulled report zeroes.
func (st *State) CountryReport(country string) []ArmReport {
	out := make([]ArmReport, st.arms)
	for k, arms := range st.stats {
		if k.country != country {
			continue
		}
		for i := range arms {
			out[i].Pulls += arms[i].totalPulls
			out[i].Served += arms[i].totalServed
			out[i].TornDown += arms[i].totalTorn
			out[i].Unestablished += arms[i].totalUnest
		}
	}
	return out
}
