// Package geneva is the public API of this reproduction of "Come as You
// Are: Helping Unmodified Clients Bypass Censorship with Server-side
// Evasion" (Bock et al., SIGCOMM 2020).
//
// It exposes the Geneva strategy language and packet-manipulation engine
// (extended to run server-side), the paper's eleven server-side strategies,
// the genetic algorithm that discovers them, and a simulation harness with
// mechanistic models of seven censors: China's GFW, India's Airtel, Jio and
// Vodafone, Iran, Kazakhstan, and Turkmenistan's TMC (see Countries).
//
// Quick start — apply Strategy 1 to a server's outbound packets:
//
//	strategy := geneva.MustParse(geneva.Strategy1.DSL)
//	engine := geneva.NewEngine(strategy, rand.New(rand.NewSource(1)))
//	server.Outbound = engine.Outbound // tcpstack.Endpoint hook
//
// Or evaluate a strategy against a censor end to end:
//
//	res, err := geneva.Run(geneva.Simulation{
//	    Country:  geneva.China,
//	    Protocol: "http",
//	    Strategy: geneva.Strategy1.DSL,
//	    Trials:   100,
//	})
//	// res.Rate is the §4.2 evasion rate; res.Manifest records the run.
//
// Or serve a whole fleet of mixed-country clients from one endpoint behind
// the §8 deployment router:
//
//	fr, err := geneva.RunDeployment(geneva.Deployment{Connections: 500})
//	// fr.PerCountry["china"].EvasionRate(), fr.Outcomes, fr.Manifest ...
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package geneva

import (
	"fmt"
	"math/rand"
	"strconv"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/fleet"
	"geneva/internal/genetic"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/selector"
	"geneva/internal/strategies"
)

// Sentinel errors, matchable with errors.Is. Every validation failure from
// Run, RunDeployment, Evolve, and NewPortfolio wraps one of these while
// keeping a descriptive message that names the valid values — branch on
// the sentinel, read the message.
var (
	// ErrUnknownCountry: the named country has no modeled censor (see
	// Countries()).
	ErrUnknownCountry = eval.ErrUnknownCountry
	// ErrUnknownProtocol: the named protocol has no modeled application
	// session ("dns", "ftp", "http", "https", "smtp").
	ErrUnknownProtocol = eval.ErrUnknownProtocol
	// ErrInvalidStrategy: a strategy string failed to parse.
	ErrInvalidStrategy = core.ErrInvalidStrategy
)

// Strategy is a parsed Geneva strategy: trigger/action-tree rules for the
// packets the server sends (Parse rejects inbound rules).
type Strategy = core.Strategy

// Engine applies a Strategy to a host's packet stream; its Outbound method
// plugs directly into tcpstack.Endpoint.Outbound.
type Engine = core.Engine

// Action is a node in a strategy's action tree.
type Action = core.Action

// Trigger selects the packets an action tree applies to.
type Trigger = core.Trigger

// Parse reads a strategy in Geneva's canonical syntax.
func Parse(input string) (*Strategy, error) { return core.Parse(input) }

// MustParse is Parse that panics on error (for static strategies).
func MustParse(input string) *Strategy { return core.MustParse(input) }

// NewEngine builds an engine for a strategy; the rng drives corrupt-mode
// tampers.
func NewEngine(s *Strategy, rng *rand.Rand) *Engine { return core.NewEngine(s, rng) }

// LibraryStrategy is a named strategy from the paper with its metadata.
type LibraryStrategy = strategies.Strategy

// The paper's eleven server-side strategies (§5).
var (
	Strategy1  = strategies.Strategy1
	Strategy2  = strategies.Strategy2
	Strategy3  = strategies.Strategy3
	Strategy4  = strategies.Strategy4
	Strategy5  = strategies.Strategy5
	Strategy6  = strategies.Strategy6
	Strategy7  = strategies.Strategy7
	Strategy8  = strategies.Strategy8
	Strategy9  = strategies.Strategy9
	Strategy10 = strategies.Strategy10
	Strategy11 = strategies.Strategy11
)

// AllStrategies returns the eleven paper strategies in order.
func AllStrategies() []LibraryStrategy { return strategies.All() }

// Countries with modeled censors. India is the Airtel sibling of the
// Indian ISP family; Jio and Vodafone are independent censors with their
// own mechanics (SNI blackholing and injected 302 redirects respectively).
const (
	China         = eval.CountryChina
	India         = eval.CountryIndia
	IndiaJio      = eval.CountryIndiaJio
	IndiaVodafone = eval.CountryIndiaVodafone
	Iran          = eval.CountryIran
	Kazakhstan    = eval.CountryKazakhstan
	Turkmenistan  = eval.CountryTurkmenistan
	NoCensor      = eval.CountryNone
)

// Countries returns every country with a modeled censor, in registry
// order, followed by NoCensor. Registering a new censor in the internal
// registry surfaces it here (and in flag help and validation errors)
// automatically.
func Countries() []string { return eval.Countries() }

// Simulation describes an end-to-end evasion evaluation: an unmodified
// client inside the given country fetching forbidden content from a server
// running the strategy.
type Simulation struct {
	// Country selects the censor model (one of Countries(): China, the
	// Indian ISPs, Iran, Kazakhstan, Turkmenistan, or NoCensor).
	Country string
	// Protocol is one of "dns", "ftp", "http", "https", "smtp".
	Protocol string
	// Strategy is the server-side Geneva program ("" = no evasion).
	Strategy string
	// Trials is the number of independent connections (0 = default 100;
	// negative is rejected).
	Trials int
	// Seed fixes the randomness (two equal Simulations agree exactly).
	Seed int64
	// Workers bounds the worker pool the trials fan out on (0 = the
	// process default, one worker per CPU). Purely a scheduling knob:
	// results are bit-identical at any width.
	Workers int
	// Impairments degrades the network path symmetrically in both
	// directions and arms endpoint retransmission. The zero value keeps the
	// historical lossless behaviour: no random loss, no timers, results
	// byte-identical to builds without the impairment layer.
	Impairments Impairments
}

// Impairments is a symmetric network impairment profile for Simulation and
// Deployment: per-packet Loss/Duplicate/Reorder probabilities in [0,1] and a
// maximum uniform extra Jitter delay. It is the netsim layer's Profile type
// — one shared definition, no conversion — and all randomness derives from
// the run's seed, so impaired runs are exactly reproducible too.
type Impairments = netsim.Profile

// Result is the structured outcome of Run: the per-trial outcome counts,
// the evasion rate, and the diffable run manifest.
type Result struct {
	// Trials is the number of independent connections simulated.
	Trials int `json:"trials"`
	// Succeeded counts trials meeting the paper's §4.2 criterion: no
	// tear-down and the client received the correct, unaltered data.
	Succeeded int `json:"succeeded"`
	// Established counts trials in which any attempt completed a handshake.
	Established int `json:"established"`
	// Attempts totals connections across all trials (retries included).
	Attempts int `json:"attempts"`
	// CensorEvents totals the censor's censorship actions.
	CensorEvents int `json:"censor_events"`
	// Rate is Succeeded/Trials, the §4.2 evasion rate.
	Rate float64 `json:"rate"`
	// Manifest is the geneva-run-manifest/v1 record of the run: config,
	// seed schedule, and (when metrics collection is enabled) every
	// counter. Byte-identical across reruns and worker widths.
	Manifest obs.Manifest `json:"manifest"`
}

// Run executes the simulation and returns the structured result. A
// Simulation naming an unknown Country or Protocol, or with negative
// Trials, returns a descriptive error. Results are bit-identical for equal
// Simulations at any Workers width.
func Run(s Simulation) (Result, error) {
	if err := eval.CheckCountryProtocol(s.Country, s.Protocol); err != nil {
		return Result{}, err
	}
	if err := eval.CheckProfile(s.Impairments); err != nil {
		return Result{}, err
	}
	if s.Trials < 0 {
		return Result{}, fmt.Errorf("Simulation.Trials = %d is negative", s.Trials)
	}
	var strategy *core.Strategy
	if s.Strategy != "" {
		parsed, err := core.Parse(s.Strategy)
		if err != nil {
			return Result{}, err
		}
		strategy = parsed
	}
	cfg := eval.Trial(s.Country, s.Protocol, strategy, s.Seed)
	cfg.Workers = s.Workers
	cfg.Impairments = netsim.Symmetric(s.Impairments)
	trials := s.Trials
	if trials == 0 {
		trials = 100
	}
	stats := eval.RateStats(cfg, trials)
	return Result{
		Trials:       stats.Trials,
		Succeeded:    stats.Succeeded,
		Established:  stats.Established,
		Attempts:     stats.Attempts,
		CensorEvents: stats.CensorEvents,
		Rate:         stats.Rate(),
		Manifest:     runManifest(s, trials),
	}, nil
}

// runManifest assembles Run's manifest. Workers is deliberately omitted —
// it cannot affect the simulation, so its absence keeps Results identical
// across widths.
func runManifest(s Simulation, trials int) obs.Manifest {
	return obs.NewManifest("run", map[string]string{
		"country":   s.Country,
		"protocol":  s.Protocol,
		"strategy":  s.Strategy,
		"trials":    strconv.Itoa(trials),
		"loss":      strconv.FormatFloat(s.Impairments.Loss, 'g', -1, 64),
		"duplicate": strconv.FormatFloat(s.Impairments.Duplicate, 'g', -1, 64),
		"reorder":   strconv.FormatFloat(s.Impairments.Reorder, 'g', -1, 64),
		"jitter":    s.Impairments.Jitter.String(),
	}, eval.SeedSchedule(s.Seed))
}

// EvasionRate runs the simulation and returns just the §4.2 success rate:
// the fraction of trials in which the connection was not torn down and the
// client received the correct, unaltered data. It is Run reduced to one
// number.
func EvasionRate(s Simulation) (float64, error) {
	res, err := Run(s)
	if err != nil {
		return 0, err
	}
	return res.Rate, nil
}

// Portfolio is an ordered, validated list of candidate strategies — the
// unit of deployment. Build one with NewPortfolio; the zero value is the
// empty portfolio (Deployment then uses the per-country registry pins).
type Portfolio = selector.Portfolio

// NewPortfolio parses and validates each strategy, in order. Errors wrap
// ErrInvalidStrategy and name the failing strategy's position; two entries
// with the same canonical text are an error naming both positions.
func NewPortfolio(strategies ...string) (Portfolio, error) {
	return selector.NewPortfolio(strategies...)
}

// Selection configures the online strategy-selection control plane on a
// Deployment: a deterministic, seeded bandit that picks each connection's
// strategy from the portfolio and learns from per-connection outcomes,
// with sliding-window decay and collapse-quarantine fallback. Its one
// field is the Policy; the zero value disables selection. The bandit's
// tuning is fixed (DESIGN.md, "Online strategy selection").
type Selection = selector.Selection

// SelectionPolicy names a bandit policy for Selection.Policy.
type SelectionPolicy = selector.Policy

// The selection policies: epsilon-greedy (explore with probability 0.1,
// otherwise exploit the best decayed success rate) and UCB1 (optimism
// under uncertainty).
const (
	EpsilonGreedy = selector.EpsilonGreedy
	UCB1          = selector.UCB1
)

// SelectionOutcome is one portfolio strategy's lifetime selection tally in
// one country: pulls and how each attempt ended (CountryStats.Selection).
type SelectionOutcome = selector.ArmReport

// CensorShift is a Deployment's deterministic mid-run censor re-tune — the
// collapse-and-recover scenario's lever (see fleet.CensorShift).
type CensorShift = fleet.CensorShift

// Deployment describes a fleet-scale workload for RunDeployment: one server
// endpoint behind the §8 router serving a mixed-country, mixed-protocol
// client population over shared cell networks, where concurrent flows
// genuinely interleave through each censor. The zero value of every field
// selects a sensible default; see the field docs on fleet.Workload.
type Deployment = fleet.Workload

// ReconnectPolicy is a Deployment client's behaviour after a connection
// attempt fails: how long it waits, how many attempts it makes, and which
// failures it retries. The zero value is the harness's historical policy
// (teardown-only retries, no backoff, per-protocol attempt budget).
type ReconnectPolicy = fleet.ReconnectPolicy

// FleetResult is RunDeployment's structured outcome: fleet totals, the
// per-country breakdown (routed/contested/unprotected connection kinds and
// their evasion rates), long-horizon request/availability outcomes, the
// connection-outcome mix, and the run manifest.
// Bit-identical for equal Deployments at any Workers width.
type FleetResult = fleet.Result

// CountryStats is one country's slice of a FleetResult.
type CountryStats = fleet.CountryStats

// RunDeployment executes the deployment workload and aggregates the fleet
// result. A Deployment naming an unknown country or protocol returns a
// descriptive error.
func RunDeployment(d Deployment) (FleetResult, error) {
	return fleet.Run(d)
}

// EvolveOptions configures a server-side Geneva training run (§4.1).
type EvolveOptions = eval.EvolveOptions

// EvolutionResult is the outcome of a training run.
type EvolutionResult = genetic.Result

// Evolve trains Geneva server-side against a simulated censor, exactly as
// the paper trains against real ones: populations of strategies mutate and
// recombine, with fitness measured by real simulated connections.
// Populations are scored by a parallel, memoizing evaluation engine whose
// output is bit-identical to scoring each strategy afresh (fitness is a
// pure function of the canonical strategy and the seed); set
// EvolveOptions.Workers to bound the pool.
// An unknown Country or Protocol returns an error matching
// ErrUnknownCountry/ErrUnknownProtocol instead of panicking inside the rig.
func Evolve(opt EvolveOptions) (EvolutionResult, error) { return eval.Evolve(opt) }

// EvalStats reports the training engine's fitness-cache traffic: how many
// strategy evaluations were answered from the canonical-strategy cache or
// collapsed as in-batch duplicates instead of being re-simulated.
type EvalStats = eval.EvalStats

// EvolveWithStats is Evolve plus the evaluation engine's cache statistics.
func EvolveWithStats(opt EvolveOptions) (EvolutionResult, EvalStats, error) {
	return eval.EvolveWithStats(opt)
}

// Router picks a strategy per client from nothing but the client's address
// in the SYN — the §8 deployment model. Install its Outbound method on a
// server endpoint exactly like an Engine's.
type Router = core.Router

// NewRouter builds a per-client strategy router with an optional fallback
// engine for unrouted clients (nil = pass packets through untouched).
func NewRouter(fallback *Engine) *Router { return core.NewRouter(fallback) }
