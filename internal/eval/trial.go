// Package eval is the experiment harness: it wires clients, servers,
// censors, and server-side strategies into the virtual network and
// reproduces every table, figure, and follow-up experiment in the paper's
// evaluation (see DESIGN.md's per-experiment index).
package eval

import (
	"fmt"
	"math/rand"
	"net/netip"

	"geneva/internal/apps"
	"geneva/internal/censor"
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
// counts its censorship events.
type CensorCounter interface {
	netsim.Middlebox
	CensoredCount() int
}

// NewCensor builds the middlebox for a country, or nil for CountryNone.
// The registry is the single source of truth: adding a CensorDef makes the
// country constructible here with no further wiring.
func NewCensor(country string, bl censor.Blocklist, rng *rand.Rand) CensorCounter {
	if country == CountryNone {
		return nil
	}
	if d, ok := CensorByCountry(country); ok {
		return d.New(bl, rng)
	}
	panic(fmt.Sprintf("eval: unknown country %q", country))
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
	// Hook, if set, is called once on the wired rig before the first
	// connection: it can instrument the client (the §5 follow-up
	// experiments), reconfigure the server (a core.Router instead of a
	// single-strategy engine), or keep the censor for inspection.
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

// Rig is a wired-up client/censor/server sandbox that can run repeated
// connections against the same censor state.
type Rig struct {
	Client  *tcpstack.Endpoint
	Server  *tcpstack.Endpoint
	Net     *netsim.Network
	Censor  CensorCounter
	Session *apps.Session

	// rngs are the rig's generators. Once they are released nothing in the
	// rig may draw, so no connection may run on it.
	rngs Rands
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
	if cfg.ClientOS.Name == "" {
		cfg.ClientOS = tcpstack.DefaultClient
	}
	seed := cfg.Seed
	clientAddr := cfg.ClientAddress
	if !clientAddr.IsValid() {
		clientAddr = ClientAddr
	}
	rngs := make(Rands, 0, 5)
	client := tcpstack.NewEndpoint(clientAddr, cfg.ClientOS, rngs.Acquire(seed+streamClient))
	server := tcpstack.NewEndpoint(ServerAddr, tcpstack.DefaultServer, rngs.Acquire(seed+streamServer))
	server.NewServerApp = cfg.Session.ServerFactory()
	server.Listen(cfg.Session.Port)
	if cfg.Strategy != nil {
		server.Outbound = core.NewEngine(cfg.Strategy, rngs.Acquire(seed+streamEngine)).Outbound
	}

	cen := NewCensor(cfg.Country, censor.Default(), rngs.Acquire(seed+streamCensor))
	var n *netsim.Network
	if cen != nil {
		n = netsim.New(client, server, cen)
	} else {
		n = netsim.New(client, server)
	}
	// Recycling is safe here because every component in the rig — endpoints,
	// censors, apps — copies what it keeps and never retains a delivered
	// *Packet (a Trace clones what it records), so delivered packets can go
	// straight back to the pool.
	n.RecyclePackets = true
	if cfg.WithTrace {
		n.Trace = &netsim.Trace{}
	}
	if cfg.Impairments.Enabled() {
		// A stream of its own keeps the impairment schedule independent
		// of the ISN, engine, and censor streams.
		n.SetImpairments(cfg.Impairments, rngs.Acquire(seed+streamImpairments))
		client.Retransmit = true
		server.Retransmit = true
	}
	client.Attach(n)
	server.Attach(n)
	rig := &Rig{Client: client, Server: server, Net: n, Censor: cen, Session: cfg.Session, rngs: rngs}
	if cfg.Hook != nil {
		cfg.Hook(rig)
	}
	return rig
}

// Attempt runs one connection to completion (network quiet) and returns the
// client application.
func (r *Rig) Attempt() *apps.Script {
	if r.Net.Trace != nil {
		r.Net.Trace.Entries = nil // keep only the current attempt
	}
	app := r.Session.NewClient()
	r.Client.Connect(ServerAddr, r.Session.Port, app)
	r.Net.Run(0)
	return app
}

// CensorEvents returns the censor's event count (0 with no censor).
func (r *Rig) CensorEvents() int {
	if r.Censor == nil {
		return 0
	}
	return r.Censor.CensoredCount()
}

// Run executes the trial on a rig of its own: up to cfg.Tries attempts,
// retrying only when the previous connection was torn down (the RFC 7766
// client behaviour the paper leans on for DNS success rates). The rig's
// generators go back to the pool before Run returns.
func Run(cfg Config) Result {
	rig := NewRig(cfg)
	defer rig.rngs.Release()
	tries := cfg.Tries
	if tries <= 0 {
		tries = 1
	}
	var res Result
	for i := 0; i < tries; i++ {
		app := rig.Attempt()
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
	res.CensorEvents = rig.CensorEvents()
	res.Trace = rig.Net.Trace
	mTrials.Inc()
	if res.Success {
		mTrialSuccess.Inc()
	}
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
// is built from its own seed — so they run on a worker pool bounded by
// cfg.Workers (0 = the process default); the result is identical to a
// sequential run because every field is a commutative sum.
func RateStats(cfg Config, trials int) RateResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = Workers()
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
	r.Attempts += res.Attempts
	r.CensorEvents += res.CensorEvents
}
