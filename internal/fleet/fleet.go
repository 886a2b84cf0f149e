// Package fleet is the deployment-scale serving harness for the paper's §8
// model: one server endpoint serves a mixed-country, mixed-protocol
// population of unmodified clients, picking each client's strategy from
// nothing but the client's address.
//
// The workload is partitioned into cells. A cell is one shared virtual
// network — one censor instance, one server that pins each routed client's
// slot its strategy, and several client endpoints inside the same
// country — on which connections run in waves of genuinely concurrent
// flows (their packets interleave through the same censor, so per-flow TCB
// isolation and cross-connection censor state are exercised for real: a
// GFW residual window opened by one client's censored flow tears down
// other clients' flows to the same server port).
//
// Every cell owns its own virtual clock and event queue, so cells are
// independent between wave barriers, and the cell is the scheduling unit:
// the whole fleet advances in wave lockstep, every cell running wave w
// concurrently on a bounded worker pool, then all meet at a barrier where
// the only genuine cross-cell censor state — the GFW's ~90 s
// residual-censorship windows — is merged. Each cell exports its live
// windows as (server key, time remaining); the barrier folds them, in cell
// index order, into a per-country ledger with a max-merge (commutative and
// associative, so the ledger is identical in any merge order); at the next
// wave's start each cell of the country is re-seeded with every ledger
// window that outlives the wave gap. With the default 120 s gap nothing
// outlives the 90 s window and the ledger is provably empty, while short
// gaps let one cell's collateral poison a whole country's fleet — the
// paper's deployment-scale risk.
//
// Every seed derives from the cell's stable index in the workload plan —
// never from scheduling order — and the ledger merge is order-independent,
// so a Result is bit-identical at any worker width.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/selector"
)

// cellSeedStride separates the seed spaces of consecutive cells; each cell
// derives a handful of offset streams (see the manifest's seed schedule)
// from Seed + cellIndex*cellSeedStride.
const cellSeedStride = 100003

// Per-cell seed-stream offsets, recorded in the manifest so a Result alone
// documents how to reproduce the run.
const (
	seedServer      = 1  // server endpoint ISN/port rng
	seedRouter      = 2  // the §8 pin's engine: paper strategy N at seedRouter + N
	seedCensor      = 3  // censor model rng
	seedImpairments = 4  // network impairment schedule
	seedSelector    = 5  // strategy-selection exploration rng (Selection on)
	seedClients     = 10 // client endpoint s uses seedClients + s
	// Portfolio arm a's engine rng sits at eval.SeedArmBase + a (1000+),
	// far above the client slots.
)

// defaultWaveGap is the virtual idle time between waves of a cell: long
// enough that cross-wave censor state (the GFW's ~90 s residual window)
// expires, so each wave starts from a clean slate unless the workload
// shortens it deliberately.
const defaultWaveGap = 120 * time.Second

// defaultRequestGap is the virtual think time between a keep-alive session's
// exchanges when the workload asks for multiple requests but no explicit gap.
const defaultRequestGap = 30 * time.Second

// Workload describes a fleet run. The zero value of every field selects a
// sensible default; the exported fields mirror geneva.Deployment (the public
// facade aliases this type).
type Workload struct {
	// Countries in the client mix (default: every registered censor, in
	// registry order). eval.CountryNone adds an uncensored client
	// population.
	Countries []string
	// Protocols in the mix (default "http"); connections cycle through them.
	Protocols []string
	// Connections is the total number of client connections across the
	// fleet (0 = default 500; negative is rejected), split evenly across
	// Countries.
	Connections int
	// ClientsPerCell is the number of routed client endpoints sharing one
	// cell network, i.e. the number of concurrent flows per routed wave
	// (0 = default 4; negative is rejected).
	ClientsPerCell int
	// WavesPerCell is the number of connection waves each cell runs
	// (0 = default 4; negative is rejected). Even waves carry routed
	// clients only; odd waves add the unprotected clients, so collateral
	// damage happens under observation.
	WavesPerCell int
	// UnprotectedPerCell is the number of clients per cell whose addresses
	// match no router prefix — the paper's geolocation-miss case. They run
	// the same forbidden sessions with no server-side help, get censored,
	// and (China) poison the server port for everyone else in the cell.
	// 0 = default (1); negative = none.
	UnprotectedPerCell int
	// WaveGap is the virtual idle time between waves (0 = default 120 s,
	// past the GFW residual window; negative = no gap, so residual state
	// from one wave bleeds into the next — within a cell and, through the
	// wave-barrier ledger, across every cell of the country).
	WaveGap time.Duration
	// Seed fixes all randomness; two equal Workloads agree exactly.
	Seed int64
	// Workers bounds the cell worker pool (0 = eval.Workers(), one per
	// CPU). Purely a scheduling knob: the Result and manifest are
	// bit-identical at any width (TestFleetDeterminism pins this).
	Workers int
	// Impairments degrades every cell network symmetrically in both
	// directions and arms endpoint retransmission; the zero value keeps
	// the links lossless.
	Impairments netsim.Profile
	// SessionRequests is the number of keep-alive request/response exchanges
	// each connection carries (0 = default 1, the classic one-shot session;
	// negative is rejected).
	// Only protocols whose transcript is a single request answered by a
	// single response extend (HTTP, HTTPS, DNS — see apps.Session.KeepAlive);
	// the others run one-shot regardless, and their planned-request
	// accounting says so.
	SessionRequests int
	// RequestGap is the virtual think time between a keep-alive session's
	// exchanges (0 with SessionRequests > 1 = default 30 s). Together with
	// SessionRequests it stretches one connection across minutes of virtual
	// time — long enough for censor state with a lifetime (GFW and TMC
	// residual windows, Jio blackholing) to straddle a single client's
	// session instead of always expiring between connections.
	RequestGap time.Duration
	// Reconnect is the client's reconnect-after-failure policy. The zero
	// value retries only abortively-torn-down attempts, immediately, within
	// the protocol's eval.TriesFor budget.
	Reconnect ReconnectPolicy
	// Portfolio is the ordered strategy list routed clients are served
	// from. Zero value (with Selection also unset): the §8 router, one
	// registry-pinned strategy per country. Set without Selection: every
	// routed client gets the portfolio's FIRST strategy — single-strategy
	// use as a one-element portfolio. Set with Selection: the bandit picks
	// an arm per connection attempt.
	Portfolio selector.Portfolio
	// Selection enables the online strategy-selection control plane. Zero
	// value: disabled (see Portfolio). When enabled with a zero Portfolio,
	// the distinct §8 deployment strategies (eval.DefaultPortfolio) are the
	// arms. Selector state merges at wave barriers in stable cell order, so
	// results stay bit-identical at any Workers width.
	Selection selector.Selection
	// Shift re-tunes censor parameters mid-run (zero value: never). It is
	// the collapse-and-recover scenario's lever: shift the parameter a
	// pinned strategy depends on and watch the selector quarantine the arm
	// and re-explore.
	Shift CensorShift
}

// CensorShift is a deterministic mid-run change to censor calibration
// parameters, applied at a wave boundary to every cell whose censor
// implements censor.ParamShifter.
type CensorShift struct {
	// AtWave is the wave index at whose start the shift applies (0 = from
	// the beginning). Waves 0..AtWave-1 run the calibrated parameters.
	AtWave int
	// Country restricts the shift to one country's cells ("" = all).
	Country string
	// Params maps parameter names to new values, bare ("prst") or
	// protocol-scoped ("http.prst") — see censor.ParamShifter. nil
	// disables the shift.
	Params map[string]float64
}

// Enabled reports whether the shift does anything.
func (cs CensorShift) Enabled() bool { return len(cs.Params) > 0 }

// validate rejects a shift that would never apply, or apply a value no
// censor can use: a country outside the workload, a negative wave, a
// non-finite parameter.
func (cs CensorShift) validate(countries []string) error {
	if cs.AtWave < 0 {
		return fmt.Errorf("Shift.AtWave = %d is negative", cs.AtWave)
	}
	if cs.Country != "" && !slices.Contains(countries, cs.Country) {
		return fmt.Errorf("Shift.Country %q is not among the workload's countries %v", cs.Country, countries)
	}
	names := make([]string, 0, len(cs.Params))
	for name := range cs.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := cs.Params[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("Shift.Params[%q] = %v is not finite", name, v)
		}
	}
	return nil
}

// ReconnectPolicy says how a client behaves after a connection attempt
// fails: how long it waits, how many times it tries, and which failures it
// retries at all. The zero value retries teardowns only, with no backoff,
// within the per-protocol attempt budget.
type ReconnectPolicy struct {
	// MaxAttempts caps total connection attempts per planned connection,
	// reconnects included (0 = the protocol's eval.TriesFor budget; 1 =
	// give up after the first failure).
	MaxAttempts int
	// Backoff is the virtual time a client waits before each reconnect
	// (0 = reconnect immediately). Against censors with expiring state,
	// backoff is the difference between reconnecting *into* a residual
	// window and reconnecting after it lapses.
	Backoff time.Duration
	// RetryAll reconnects after any failure — blackholed, corrupted, or
	// never-established attempts included — not only after an abortive
	// teardown (the default trigger).
	RetryAll bool
}

// CountryStats aggregates one country's slice of the fleet.
type CountryStats struct {
	// Connections and Succeeded cover every kind of client.
	Connections int `json:"connections"`
	Succeeded   int `json:"succeeded"`
	// Routed counts connections from clients the router matched, in waves
	// with no unprotected traffic — the clean §8 deployment measurement.
	Routed          int `json:"routed"`
	RoutedSucceeded int `json:"routed_succeeded"`
	// Contested counts routed connections that shared their wave with
	// unprotected clients, so censor state those clients trip (teardown,
	// residual windows) can hit them as collateral.
	Contested          int `json:"contested"`
	ContestedSucceeded int `json:"contested_succeeded"`
	// Unprotected counts connections from clients outside every route.
	Unprotected          int `json:"unprotected"`
	UnprotectedSucceeded int `json:"unprotected_succeeded"`
	// CensorEvents totals the country's censorship actions.
	CensorEvents int `json:"censor_events"`

	// Long-horizon session outcomes. RequestsAttempted is the workload's
	// demand — every exchange the plan asked the country's connections to
	// carry — and RequestsServed is how many arrived intact, across initial
	// attempts and reconnects alike.
	RequestsAttempted int `json:"requests_attempted"`
	RequestsServed    int `json:"requests_served"`
	// FirstAttemptSucceeded counts connections whose FIRST attempt served
	// the whole session — the classic evasion measurement, unchanged by any
	// reconnect policy.
	FirstAttemptSucceeded int `json:"first_attempt_succeeded"`
	// Reconnects counts attempts beyond each connection's first; Recoveries
	// counts connections that failed at least once and still finished their
	// session on a later attempt.
	Reconnects int `json:"reconnects"`
	Recoveries int `json:"recoveries"`
	// reconnectsToRecover sums Reconnects over recovered connections only
	// (the numerator of MeanReconnectsToRecovery).
	ReconnectsToRecover int `json:"reconnects_to_recover"`
	// UptimeVirtual sums the virtual time connections spent visibly working
	// (from each attempt's SYN to its last verified byte); LifetimeVirtual
	// sums each connection's planned-or-actual session span. Their ratio is
	// Availability. JSON values are nanoseconds.
	UptimeVirtual   time.Duration `json:"uptime_virtual_ns"`
	LifetimeVirtual time.Duration `json:"lifetime_virtual_ns"`

	// Selection maps each portfolio strategy (by canonical text, in
	// portfolio order under the hood) to its lifetime selection outcomes
	// in this country: how often the control plane picked it and how each
	// attempt ended. nil when Selection is off or the country is unrouted
	// (no arm was ever pulled there).
	Selection map[string]selector.ArmReport `json:"selection"`
}

// EvasionRate is the clean routed success fraction — the per-country number
// to hold against Table 2.
func (c CountryStats) EvasionRate() float64 {
	if c.Routed == 0 {
		return 0
	}
	return float64(c.RoutedSucceeded) / float64(c.Routed)
}

// Availability is the user-visible fraction of virtual session lifetime the
// country's clients had a working connection — the long-horizon outcome a
// first-connection evasion rate cannot see (a session torn down mid-way and
// never recovered scores full evasion but one-third availability).
func (c CountryStats) Availability() float64 {
	if c.LifetimeVirtual <= 0 {
		return 0
	}
	return float64(c.UptimeVirtual) / float64(c.LifetimeVirtual)
}

// MeanReconnectsToRecovery is the average number of reconnect attempts a
// recovered connection needed before its session finished (0 when nothing
// recovered).
func (c CountryStats) MeanReconnectsToRecovery() float64 {
	if c.Recoveries == 0 {
		return 0
	}
	return float64(c.ReconnectsToRecover) / float64(c.Recoveries)
}

// Result is the structured outcome of a fleet run. It contains no
// wall-clock measurements and no worker-width echo, so two runs of the same
// Workload are bit-identical regardless of scheduling (TestFleetDeterminism
// pins this).
type Result struct {
	// Connections, Succeeded, RequestsAttempted/RequestsServed and the
	// virtual uptime/lifetime sums total PerCountry over the whole fleet.
	Connections       int           `json:"connections"`
	Succeeded         int           `json:"succeeded"`
	RequestsAttempted int           `json:"requests_attempted"`
	RequestsServed    int           `json:"requests_served"`
	UptimeVirtual     time.Duration `json:"uptime_virtual_ns"`
	LifetimeVirtual   time.Duration `json:"lifetime_virtual_ns"`
	// Cells is the number of independent cell networks the plan produced.
	Cells int `json:"cells"`
	// PerCountry breaks the fleet down by censor.
	PerCountry map[string]CountryStats `json:"per_country"`
	// Outcomes is the connection-outcome mix: "served" (correct data, no
	// teardown), "torn_down" (established, then censored or corrupted),
	// "never_established" (handshake never completed on any attempt).
	Outcomes map[string]int `json:"outcomes"`
	// Fallbacks counts collapse-quarantine events: how many times the
	// control plane benched a cratered incumbent strategy and re-explored.
	// Always 0 when Selection is off.
	Fallbacks int `json:"fallbacks"`
	// Manifest is the diffable run record (geneva-run-manifest/v1): the
	// workload config, the cell seed schedule, and — when obs collection is
	// enabled — every counter. Worker width is deliberately absent: it
	// cannot affect what the fleet did.
	Manifest obs.Manifest `json:"manifest"`
}

// Availability is the fleet-wide user-visible availability (see
// CountryStats.Availability).
func (r Result) Availability() float64 {
	if r.LifetimeVirtual <= 0 {
		return 0
	}
	return float64(r.UptimeVirtual) / float64(r.LifetimeVirtual)
}

// checkSizes rejects a negative size, before withDefaults would silently
// replace it with the default.
func (wl Workload) checkSizes() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Connections", wl.Connections}, {"ClientsPerCell", wl.ClientsPerCell},
		{"WavesPerCell", wl.WavesPerCell}, {"SessionRequests", wl.SessionRequests}} {
		if f.v < 0 {
			return fmt.Errorf("fleet: %s = %d is negative", f.name, f.v)
		}
	}
	return nil
}

// withDefaults resolves the zero-value fields. It returns a copy; the
// caller's Workload is never mutated.
func (wl Workload) withDefaults() Workload {
	if len(wl.Countries) == 0 {
		wl.Countries = eval.CensoredCountries()
	}
	if len(wl.Protocols) == 0 {
		wl.Protocols = []string{"http"}
	}
	if wl.Connections == 0 {
		wl.Connections = 500
	}
	if wl.ClientsPerCell == 0 {
		wl.ClientsPerCell = 4
	}
	if wl.WavesPerCell == 0 {
		wl.WavesPerCell = 4
	}
	switch {
	case wl.UnprotectedPerCell == 0:
		wl.UnprotectedPerCell = 1
	case wl.UnprotectedPerCell < 0:
		wl.UnprotectedPerCell = 0
	}
	switch {
	case wl.WaveGap == 0:
		wl.WaveGap = defaultWaveGap
	case wl.WaveGap < 0:
		wl.WaveGap = 0
	}
	if wl.SessionRequests == 0 {
		wl.SessionRequests = 1
	}
	switch {
	case wl.RequestGap == 0 && wl.SessionRequests > 1:
		wl.RequestGap = defaultRequestGap
	case wl.RequestGap < 0:
		wl.RequestGap = 0
	}
	return wl
}

// validate rejects workloads the harness cannot simulate, with errors that
// name the valid values.
func (wl Workload) validate() error {
	for _, c := range wl.Countries {
		if !eval.ValidCountry(c) {
			return fmt.Errorf("fleet: %w", eval.CheckCountryProtocol(c, wl.Protocols[0]))
		}
	}
	for _, p := range wl.Protocols {
		if !eval.ValidProtocol(p) {
			return fmt.Errorf("fleet: %w", eval.CheckCountryProtocol(wl.Countries[0], p))
		}
	}
	// clientAddr gives slot s host byte 2+s; past 254, hosts alias in the
	// network's client map and their connections never establish.
	if n := wl.ClientsPerCell + wl.UnprotectedPerCell; n > 253 {
		return fmt.Errorf("fleet: ClientsPerCell + UnprotectedPerCell = %d exceeds the 253 client addresses available per cell", n)
	}
	if err := eval.CheckProfile(wl.Impairments); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	// A negative backoff would start a reconnect in the virtual past,
	// crediting uptime beyond the session's lifetime.
	if wl.Reconnect.Backoff < 0 {
		return fmt.Errorf("fleet: Reconnect.Backoff = %v is negative", wl.Reconnect.Backoff)
	}
	// A negative budget would be recorded as such but run as the
	// protocol's default.
	if wl.Reconnect.MaxAttempts < 0 {
		return fmt.Errorf("fleet: Reconnect.MaxAttempts = %d is negative", wl.Reconnect.MaxAttempts)
	}
	if wl.Shift.Enabled() {
		if err := wl.Shift.validate(wl.Countries); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	if wl.Selection.Enabled() {
		if err := wl.Selection.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// control is the run's resolved strategy-delivery mode.
type control struct {
	portfolio selector.Portfolio // raced or pinned; zero for the §8 pins
	arms      map[string]armSet  // per routed country
	state     *selector.State    // merged bandit state; nil without Selection
}

// armSet is what a routed country's cells serve, one engine per strategy:
// the portfolio's, or the country's §8 strategy alone. Arm a's generator
// is seeded at cellSeed + seed + a.
type armSet struct {
	strats []*core.Strategy
	seed   int64
}

// resolveControl interprets the Portfolio × Selection matrix, once per
// run. Selection without a portfolio races the distinct §8 deployment
// strategies; with neither, each routed country serves the §8 strategy
// its clients' addresses select (eval.DeployFor) as a one-arm set on the
// router stream. Arm 0 serves without Selection.
func resolveControl(wl Workload) control {
	ctl := control{portfolio: wl.Portfolio, arms: map[string]armSet{}}
	if wl.Selection.Enabled() {
		if ctl.portfolio.IsZero() {
			ctl.portfolio = eval.DefaultPortfolio()
		}
		ctl.state = selector.NewState(wl.Selection, ctl.portfolio.Len())
	}
	portfolio := make([]*core.Strategy, ctl.portfolio.Len())
	for a := range portfolio {
		portfolio[a] = ctl.portfolio.Strategy(a)
	}
	for _, country := range wl.Countries {
		s, number, routed := eval.DeployFor(eval.RoutedClientAddr(country, 0))
		switch {
		case !routed:
		case ctl.portfolio.IsZero():
			ctl.arms[country] = armSet{strats: []*core.Strategy{s}, seed: seedRouter + number}
		default:
			ctl.arms[country] = armSet{strats: portfolio, seed: eval.SeedArmBase}
		}
	}
	return ctl
}

// Run executes the workload and aggregates the fleet result. Cells are
// taken from their pools and wired, driven wave by wave (one wave of every
// cell runs concurrently on a pool of up to wl.Workers goroutines, meeting
// at a residual-merge barrier between waves), read in cell order, and put
// back, so the Result is identical at any worker width.
func Run(wl Workload) (Result, error) {
	if err := wl.checkSizes(); err != nil {
		return Result{}, err
	}
	wl = wl.withDefaults()
	if err := wl.validate(); err != nil {
		return Result{}, err
	}
	plans := plan(wl)
	ctl := resolveControl(wl)

	workers := wl.Workers
	if workers <= 0 {
		workers = eval.Workers()
	}

	cells := newCells(wl, plans, ctl, workers)
	// The selector's wave barrier drains cells in stable cell-index order
	// (the fold is integer addition, so any order gives the same state —
	// but the stable order keeps it obviously scheduling-independent).
	var selCells []*selector.Cell
	if ctl.state != nil {
		selCells = make([]*selector.Cell, len(cells))
		for i, c := range cells {
			selCells[i] = c.selCell
		}
	}
	maxWaves := 0
	for _, c := range cells {
		maxWaves = max(maxWaves, c.waves())
	}

	// Wave lockstep: every cell runs wave w, then the barrier folds their
	// residual exports, in cell order, into next wave's per-country
	// ledgers. The fold is a max-merge over (key, remaining) pairs —
	// commutative and associative — so merge order cannot change the
	// ledger, and a ledger entry is re-published by any cell still holding
	// the window, so windows survive as many barriers as their 90 s
	// lifetime spans.
	ledgers := map[string]residualLedger{}
	for w := 0; w < maxWaves; w++ {
		eval.RunParallel(workers, len(cells), func(i int) {
			cells[i].runWave(w, ledgers[cells[i].plan.country])
		})
		next := map[string]residualLedger{}
		for _, c := range cells {
			if len(c.exports) == 0 {
				continue
			}
			led := next[c.plan.country]
			if led == nil {
				led = residualLedger{}
				next[c.plan.country] = led
			}
			for k, rem := range c.exports {
				if cur, ok := led[k]; !ok || rem > cur {
					led[k] = rem
				}
			}
			clear(c.exports)
		}
		ledgers = next
		if ctl.state != nil {
			// Fold the wave's selection outcomes and run the decay +
			// collapse-detection pass, single-threaded like the residual
			// merge above.
			ctl.state.Merge(selCells)
		}
	}

	out := aggregate(cells, ctl)
	record(cells)
	// The cells go back to their pools only now that aggregate and record
	// have read their results.
	putCells(wl, cells)
	out.Manifest = manifest(wl, len(cells), ctl)
	return out, nil
}
