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
// Two classic bandit policies sit behind Selection.Policy: epsilon-greedy
// (explore with probability ε, otherwise exploit the best decayed success
// rate) and UCB1 (optimism in the face of uncertainty; pulls every arm
// once, then maximizes mean + C·sqrt(ln N / n)). Both operate on an
// exponentially decayed window so old evidence ages out, and both honor the
// collapse fallback: when the incumbent arm's windowed success rate craters
// below a threshold, it is quarantined for a few waves — its statistics
// zeroed so it re-earns trust — and the survivors are re-explored. That
// fallback is what turns a mid-run censor shift from a permanent outage
// into a few waves of degraded service. The tuning is fixed (see the
// constants below); only the policy is chosen per run.
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
}

// NewPortfolio parses and compiles each strategy, in order. Any strategy
// that fails to parse aborts construction with an error wrapping
// core.ErrInvalidStrategy (position in the portfolio included), and so do
// two entries with the same canonical text: outcomes are reported per
// canonical text, so a duplicate arm would overwrite the other's tally.
func NewPortfolio(dsls ...string) (Portfolio, error) {
	strats := make([]*core.Strategy, 0, len(dsls))
	at := make(map[string]int, len(dsls))
	for i, dsl := range dsls {
		s, err := core.Parse(dsl)
		if err != nil {
			return Portfolio{}, fmt.Errorf("portfolio strategy %d: %w", i, err)
		}
		name := s.String()
		if j, dup := at[name]; dup {
			return Portfolio{}, fmt.Errorf("portfolio strategies %d and %d are the same program %q: %w",
				j, i, name, core.ErrInvalidStrategy)
		}
		at[name] = i
		strats = append(strats, s)
	}
	return Portfolio{strats: strats}, nil
}

// FromStrategies builds a portfolio from already-compiled, distinct
// strategies (the registry path: the deploy table is parsed once at init
// and shared). It primes each strategy's memoized canonical text, so the
// portfolio's readers never write to a shared strategy.
func FromStrategies(strats []*core.Strategy) Portfolio {
	for _, s := range strats {
		_ = s.String()
	}
	return Portfolio{strats: append([]*core.Strategy(nil), strats...)}
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
	out := make([]string, len(p.strats))
	for i, s := range p.strats {
		out[i] = s.String()
	}
	return out
}

// Name returns the i-th strategy's canonical text (the key selection
// outcomes are reported under).
func (p Portfolio) Name(i int) string { return p.strats[i].String() }

// Hash is a stable FNV-64a digest of the canonical strategy texts in
// order — the manifest's portfolio identity. Two portfolios hash equal iff
// their canonical programs and order agree.
func (p Portfolio) Hash() string {
	h := fnv.New64a()
	for _, s := range p.strats {
		h.Write([]byte(s.String()))
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
	// EpsilonGreedy explores with probability epsilon and otherwise
	// exploits the best decayed success rate.
	EpsilonGreedy Policy = "epsilon-greedy"
	// UCB1 plays the classic upper-confidence-bound rule: try every arm
	// once, then maximize mean + C·sqrt(ln N / n).
	UCB1 Policy = "ucb1"
)

// The bandit's tuning, shared by every run.
const (
	// epsilon is EpsilonGreedy's exploration probability.
	epsilon = 0.1
	// ucbC is UCB1's exploration coefficient C.
	ucbC = 1.5
	// decay is the per-barrier multiplier applied to every arm's decayed
	// pull/win window: lower forgets faster, 1 never forgets.
	decay = 0.9
	// minPulls is the decayed evidence the incumbent needs before the
	// collapse detector judges it.
	minPulls = 3.0
	// collapseBelow is the windowed success rate under which the incumbent
	// (most-pulled) arm is declared collapsed and quarantined.
	collapseBelow = 0.2
	// quarantineWaves is how many barriers a collapsed arm sits out before
	// it may be selected again. Its window is zeroed on quarantine, so a
	// returning arm re-earns trust from scratch.
	quarantineWaves = 2
)

// Selection configures the control plane. The zero value disables it
// entirely — the fleet reproduces the pinned-strategy deployment byte for
// byte.
type Selection struct {
	// Policy picks the bandit rule; "" (Pinned) disables selection.
	Policy Policy
}

// Enabled reports whether online selection is on.
func (s Selection) Enabled() bool { return s.Policy != Pinned }

// Validate rejects a policy the selector does not know.
func (s Selection) Validate() error {
	switch s.Policy {
	case Pinned, EpsilonGreedy, UCB1:
		return nil
	}
	return fmt.Errorf("selector: unknown policy %q (valid: %q, %q)",
		string(s.Policy), string(EpsilonGreedy), string(UCB1))
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
	policy Policy
	arms   int
	stats  map[key][]armStats
	// fallbacks counts collapse-quarantine events over the whole run.
	fallbacks uint64
}

// NewState builds the run's control-plane state for a portfolio of `arms`
// strategies. sel must already be validated.
func NewState(sel Selection, arms int) *State {
	return &State{
		policy: sel.Policy,
		arms:   arms,
		stats:  make(map[key][]armStats),
	}
}

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
// plain integer counts, so Merge's fold is exact in any order.
type delta struct {
	k      key
	arm    int
	pulls  uint64
	served uint64
	torn   uint64
	unest  uint64
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
// across waves (the fleet keeps one per cell); Merge empties it at each
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

	switch c.st.policy {
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
			v := w/p + ucbC*math.Sqrt(lnN/p)
			if v > bestV {
				best, bestV = a, v
			}
		}
		return best
	default: // EpsilonGreedy
		if rng.Float64() < epsilon {
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

// Merge is the wave barrier: it decays every window, folds each cell's
// wave observations in — in the caller's stable cell order — empties the
// cells for the next wave, and runs collapse detection. nil entries (cells
// without selection, e.g. uncensored populations) are skipped. Call on a
// single goroutine between waves. The per-(key, arm) fold is integer
// addition, so any cell order produces the same state; the stable order
// keeps the iteration obviously deterministic.
func (st *State) Merge(cells []*Cell) {
	// 1. Decay every live window (the sliding-window forgetting step).
	for _, arms := range st.stats {
		for i := range arms {
			arms[i].pulls *= decay
			arms[i].wins *= decay
		}
	}
	// 2. Fold the wave's integer deltas in.
	for _, c := range cells {
		if c == nil {
			continue
		}
		for _, d := range c.deltas {
			arms := st.armsFor(d.k)
			a := &arms[d.arm]
			a.pulls += float64(d.pulls)
			a.wins += float64(d.served)
			a.totalPulls += d.pulls
			a.totalServed += d.served
			a.totalTorn += d.torn
			a.totalUnest += d.unest
		}
		c.deltas = c.deltas[:0]
	}
	// 3. Quarantine bookkeeping and collapse detection, per key in sorted
	// order (map iteration order must not leak into anything observable).
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
		if inc >= 0 && incPulls >= minPulls {
			if rate := arms[inc].wins / arms[inc].pulls; rate < collapseBelow {
				arms[inc].quarantine = quarantineWaves
				arms[inc].pulls = 0
				arms[inc].wins = 0
				arms[inc].everCollapsed = true
				st.fallbacks++
			}
		}
	}
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
