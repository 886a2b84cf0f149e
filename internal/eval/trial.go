// Package eval is the trial engine: it wires clients, servers, censors,
// and server-side strategies into the virtual network and runs trials of
// them (Run, RateStats), over the censor registry and the protocol table.
// The GA's evaluator, the generator streams and the pooled leases the
// fleet runs on live here too. The paper's tables, figures and follow-ups
// are built on it in internal/paper.
package eval

import (
	"math/rand"
	"net/netip"
	"sync"

	"geneva/internal/apps"
	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/tcpstack"
)

// Countries with modeled censors. CountryIndia is the Airtel sibling of
// the India ISP family (the paper's §5.2 measurement); Jio and Vodafone
// are separate countries from the harness's point of view because each
// ISP is an independent censor.
const (
	CountryNone          = ""
	CountryChina         = "china"
	CountryIndia         = "india"
	CountryIndiaJio      = "india-jio"
	CountryIndiaVodafone = "india-vodafone"
	CountryIran          = "iran"
	CountryKazakhstan    = "kazakhstan"
	CountryTurkmenistan  = "turkmenistan"
)

// ClientAddr and ServerAddr are the fixed endpoints of every trial: a
// client inside the censoring regime, a server outside it.
var (
	ClientAddr = netip.MustParseAddr("10.1.0.2")
	ServerAddr = netip.MustParseAddr("198.51.100.9")
)

// CensorCounter is implemented by every censor model: a middlebox that
// counts its censorship events and resets in place.
type CensorCounter interface {
	netsim.Middlebox
	CensoredCount() int
	// Reset returns the censor to the state its registry constructor
	// leaves it in when given rng, keeping its tables' capacity.
	Reset(rng *rand.Rand)
}

// Config describes one trial.
type Config struct {
	// Country selects the censor ("" = none, the §7 private network).
	Country string
	// Session is the application exchange to attempt.
	Session *apps.Session
	// Strategy is the server-side Geneva strategy (nil = no evasion).
	Strategy *core.Strategy
	// ClientOS defaults to tcpstack.DefaultClient.
	ClientOS tcpstack.Personality
	// Tries is the number of connection attempts; retries happen only if
	// the previous attempt's connection was torn down (RFC 7766 DNS
	// behaviour). Default 1.
	Tries int
	// Seed makes the trial reproducible.
	Seed int64
	// ClientAddress overrides the client's address (the §8 router
	// experiment places clients in different regions' prefixes).
	ClientAddress netip.Addr
	// Hook, if set, is called on the wired rig before the first
	// connection: it can instrument the client (the §5 follow-up
	// experiments), wrap the server's Outbound (the §7 carriers' drops
	// behind the strategy), or re-tune the censor (the GFW ablations).
	// Run wires a pooled rig anew for every trial and calls Hook after
	// each wiring, exactly as NewRig does, so a hook must build any state
	// it keeps inside itself.
	Hook func(*Rig)
	// WithTrace records a packet trace (waterfalls).
	WithTrace bool
	// Impairments adds seedable loss/duplication/reordering/jitter to the
	// path and arms endpoint retransmission. The zero value leaves the
	// network lossless, the retransmission timers unarmed, and every trial
	// byte-identical to an impairment-free build.
	Impairments netsim.Impairments
	// Workers bounds the per-trial worker pool Rate/RateStats fan out on
	// (0 = Workers(), one per CPU). Purely a scheduling knob: every
	// trial derives its randomness from Seed and its own index, so results
	// are identical at any width.
	Workers int
}

// Trial is the paper's §4.2 trial of protocol against country's censor:
// the forbidden session and the protocol's retry budget, served with
// strategy s (nil = no evasion) at seed. Every experiment builds its trials
// here and sets on the result only the fields it changes.
func Trial(country, protocol string, s *core.Strategy, seed int64) Config {
	return Config{
		Country:  country,
		Session:  SessionFor(country, protocol, true),
		Strategy: s,
		Tries:    TriesFor(protocol),
		Seed:     seed,
	}
}

// Result of a trial.
type Result struct {
	// Success is the paper's criterion: no tear-down and correct data.
	Success bool
	// Established reports whether any attempt completed a handshake.
	Established bool
	// CensorEvents counts censorship actions across all attempts.
	CensorEvents int
	// Attempts is how many connections were made.
	Attempts int
	// Trace is the packet trace of the *last* attempt (if requested).
	Trace *netsim.Trace
}

// Rig is the §4.2 trial's sandbox: one client, the country's censor and a
// server running the strategy, which can run repeated connections against
// the same censor state. Run recycles rigs: reset rewires one for the next
// trial in place, censor included while the country is unchanged.
type Rig struct {
	Sandbox
	Client  *tcpstack.Endpoint // the one client slot
	Session *apps.Session
}

// The trial seed schedule: trial i of a rate loop runs at seed
// base + i*trialSeedStride, and a rig built at seed s draws each stream
// from s plus the stream's offset. SeedSchedule records it in manifests.
const (
	trialSeedStride = 7919

	streamClient      = 0 // client ISNs and ephemeral ports
	streamServer      = 1
	streamEngine      = 2
	streamCensor      = 3
	streamImpairments = 4
)

// SeedSchedule is the manifest record of the trial seed schedule at base.
func SeedSchedule(base int64) obs.SeedSchedule {
	return obs.SeedSchedule{
		Base:      base,
		TrialStep: trialSeedStride,
		Streams: map[string]int64{
			"client":      streamClient,
			"server":      streamServer,
			"engine":      streamEngine,
			"censor":      streamCensor,
			"impairments": streamImpairments,
		},
	}
}

// NewRig builds the sandbox for a config.
func NewRig(cfg Config) *Rig {
	r := new(Rig)
	r.reset(cfg)
	return r
}

// reset wires the rig for cfg through the sandbox's Reset, reusing what
// the last trial left behind: the only path that wires a rig, so a reset
// rig is in exactly the state a fresh one would be. The engine is kept
// while the strategy's text is unchanged, and a script Attempt returned
// stays valid until the next reset. Only the Trace is built anew, because
// Run returns it.
func (r *Rig) reset(cfg Config) {
	os := cfg.ClientOS
	if os.Name == "" {
		os = tcpstack.DefaultClient
	}
	seed := cfg.Seed
	clientAddr := cfg.ClientAddress
	if !clientAddr.IsValid() {
		clientAddr = ClientAddr
	}
	var strats []*core.Strategy
	if cfg.Strategy != nil {
		strats = []*core.Strategy{cfg.Strategy}
	}
	r.Reset(cfg.Country, []netip.Addr{clientAddr}, os, strats, cfg.Impairments, Seeds{
		Server:      seed + streamServer,
		Censor:      seed + streamCensor,
		Impairments: seed + streamImpairments,
		Clients:     seed + streamClient,
		Arms:        seed + streamEngine,
	})
	if strats != nil {
		r.Pin(0, 0)
	}
	r.Client = r.Clients[0]
	r.Serve(cfg.Session.Port, cfg.Session.Server())
	r.Server.Listen(cfg.Session.Port)
	if cfg.WithTrace {
		r.Net.Trace = &netsim.Trace{}
	}
	r.Session = cfg.Session
	if cfg.Hook != nil {
		cfg.Hook(r)
	}
}

// Attempt runs one connection of Session to completion (network quiet) and
// returns the client application, which stays valid until the rig is next
// reset. Session may change between attempts: the server serves the
// current one's template.
func (r *Rig) Attempt() *apps.Script {
	if r.Net.Trace != nil {
		r.Net.Trace.Entries = nil // keep only the current attempt
	}
	r.Serve(r.Session.Port, r.Session.Server())
	app := r.Lease(r.Session.Client())
	r.Client.Connect(ServerAddr, r.Session.Port, app)
	r.Net.Run(0)
	return app
}

// rigPool recycles trial rigs: Run resets a pooled rig in place instead
// of building a fresh one per trial.
var rigPool = sync.Pool{New: func() any { return new(Rig) }}

// Run executes the trial on a pooled rig, reset for cfg: up to cfg.Tries
// attempts, retrying only when the previous connection was torn down (the
// RFC 7766 client behaviour the paper leans on for DNS success rates). The
// rig goes back to the pool before Run returns.
func Run(cfg Config) Result {
	rig := rigPool.Get().(*Rig)
	rig.reset(cfg)
	res := rig.run(cfg.Tries)
	rigPool.Put(rig)
	mTrials.Inc()
	if res.Success {
		mTrialSuccess.Inc()
	}
	return res
}

// EvadingSeed returns the first seed in 1-499 at which cfg's trial evades,
// so a waterfall shows the strategy's successful path (as the paper's
// figures do), or 1 if none does. cfg.Seed is ignored, and the search runs
// untraced whatever cfg.WithTrace says.
func EvadingSeed(cfg Config) int64 {
	cfg.WithTrace = false
	for seed := int64(1); seed < 500; seed++ {
		cfg.Seed = seed
		if Run(cfg).Success {
			return seed
		}
	}
	return 1
}

// run makes up to tries attempts (at least one) on the wired rig.
func (r *Rig) run(tries int) Result {
	if tries <= 0 {
		tries = 1
	}
	var res Result
	for i := 0; i < tries; i++ {
		app := r.Attempt()
		res.Attempts++
		res.Established = res.Established || app.Established()
		if app.Succeeded() {
			res.Success = true
			break
		}
		if !app.Reset() {
			break // blackholed or corrupted: real clients stop retrying
		}
	}
	res.CensorEvents = r.CensorEvents()
	res.Trace = r.Net.Trace
	return res
}

// RateResult aggregates a batch of independent trials: the per-trial outcome
// counts geneva.Run surfaces. Every field is a sum of per-trial values whose
// randomness derives purely from the seed schedule, so a RateResult is
// bit-identical at any worker width.
type RateResult struct {
	// Trials is the number of independent connections simulated.
	Trials int
	// Succeeded counts trials meeting the paper's §4.2 criterion: no
	// tear-down and the client received the correct, unaltered data.
	Succeeded int
	// Established counts trials in which any attempt completed a handshake.
	Established int
	// Attempts is the total number of connections across all trials
	// (retries included).
	Attempts int
	// CensorEvents is the total number of censorship actions observed.
	CensorEvents int
	// Censored counts trials in which the censor acted at least once.
	Censored int
}

// Rate returns the success fraction, the §4.2 evasion rate.
func (r RateResult) Rate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Succeeded) / float64(r.Trials)
}

// RateStats runs trials independent trials of cfg (varying the seed) and
// returns the aggregated outcome counts. Trials share no state — every rig
// is wired afresh from its own seed — so they run on a worker pool bounded by
// cfg.Workers (0 = the process default); the result is identical to a
// sequential run because every field is a commutative sum.
func RateStats(cfg Config, trials int) RateResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = Workers()
	}
	if cfg.Strategy != nil {
		_ = cfg.Strategy.String() // memoize before the workers read it
	}
	results := make([]Result, trials)
	RunParallel(workers, trials, func(i int) {
		c := cfg
		c.Seed += int64(i) * trialSeedStride
		results[i] = Run(c)
	})
	out := RateResult{Trials: trials}
	for i := range results {
		out.add(results[i])
	}
	return out
}

// Rate is RateStats reduced to the success fraction.
func Rate(cfg Config, trials int) float64 {
	return RateStats(cfg, trials).Rate()
}

// add folds one trial's outcome into the counts.
func (r *RateResult) add(res Result) {
	if res.Success {
		r.Succeeded++
	}
	if res.Established {
		r.Established++
	}
	if res.CensorEvents > 0 {
		r.Censored++
	}
	r.Attempts += res.Attempts
	r.CensorEvents += res.CensorEvents
}
