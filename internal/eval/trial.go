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
	// ClientHook, if set, can instrument the client endpoint before the
	// connection starts (the §5 follow-up experiments).
	ClientHook func(*tcpstack.Endpoint)
	// ClientAddress overrides the client's address (the §8 router
	// experiment places clients in different regions' prefixes).
	ClientAddress netip.Addr
	// ServerHook, if set, configures the server endpoint before the
	// connection starts (e.g. installing a core.Router instead of a
	// single-strategy engine).
	ServerHook func(*tcpstack.Endpoint)
	// WithTrace records a packet trace (waterfalls).
	WithTrace bool
	// Blocklist defaults to censor.Default().
	Blocklist *censor.Blocklist
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
	// Censor exposes the middlebox for model-specific inspection.
	Censor netsim.Middlebox
	// Rig remains usable for follow-on connections (residual
	// censorship experiments).
	Rig *Rig
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
}

// NewRig builds the sandbox for a config.
func NewRig(cfg Config) *Rig {
	if cfg.ClientOS.Name == "" {
		cfg.ClientOS = tcpstack.DefaultClient
	}
	bl := censor.Default()
	if cfg.Blocklist != nil {
		// Normalize once at rig construction so mixed-case or padded
		// entries match, and the per-packet Match fast path never pays for
		// re-normalizing.
		bl = cfg.Blocklist.Normalize()
	}
	seed := cfg.Seed
	clientAddr := cfg.ClientAddress
	if !clientAddr.IsValid() {
		clientAddr = ClientAddr
	}
	client := tcpstack.NewEndpoint(clientAddr, cfg.ClientOS, rand.New(rand.NewSource(seed)))
	server := tcpstack.NewEndpoint(ServerAddr, tcpstack.DefaultServer, rand.New(rand.NewSource(seed+1)))
	server.NewServerApp = cfg.Session.ServerFactory()
	server.Listen(cfg.Session.Port)
	if cfg.Strategy != nil {
		server.Outbound = core.NewEngine(cfg.Strategy, rand.New(rand.NewSource(seed+2))).Outbound
	}

	cen := NewCensor(cfg.Country, bl, rand.New(rand.NewSource(seed+3)))
	var n *netsim.Network
	if cen != nil {
		n = netsim.New(client, server, cen)
	} else {
		n = netsim.New(client, server)
	}
	// Recycling is safe here because every component in the rig — endpoints,
	// censors, apps — copies what it keeps and never retains a delivered
	// *Packet (recorders clone at record time), so delivered packets can go
	// straight back to the pool.
	n.RecyclePackets = true
	if cfg.WithTrace {
		n.Trace = &netsim.Trace{}
	}
	if cfg.Impairments.Enabled() {
		// seed+4 keeps the impairment schedule independent of the ISN,
		// engine, and censor rng streams (seed..seed+3).
		n.SetImpairments(cfg.Impairments, rand.New(rand.NewSource(seed+4)))
		client.Retransmit = tcpstack.DefaultRetransmit
		server.Retransmit = tcpstack.DefaultRetransmit
	}
	client.Attach(n)
	server.Attach(n)
	if cfg.ClientHook != nil {
		cfg.ClientHook(client)
	}
	if cfg.ServerHook != nil {
		cfg.ServerHook(server)
	}
	return &Rig{Client: client, Server: server, Net: n, Censor: cen, Session: cfg.Session}
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

// Run executes the trial: up to cfg.Tries attempts, retrying only when the
// previous connection was torn down (the RFC 7766 client behaviour the
// paper leans on for DNS success rates).
func Run(cfg Config) Result {
	rig := NewRig(cfg)
	tries := cfg.Tries
	if tries <= 0 {
		tries = 1
	}
	res := Result{Censor: rig.Censor, Rig: rig}
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
	mAttempts.Add(uint64(res.Attempts))
	if res.Success {
		mTrialSuccess.Inc()
	}
	if res.Established {
		mTrialEstablished.Inc()
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
	if workers > trials {
		workers = trials
	}
	if workers <= 1 {
		return rateSequential(cfg, trials)
	}
	results := make([]Result, trials)
	RunParallel(workers, trials, func(i int) {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		results[i] = Run(c)
	})
	out := RateResult{Trials: trials}
	for i := range results {
		if results[i].Success {
			out.Succeeded++
		}
		if results[i].Established {
			out.Established++
		}
		out.Attempts += results[i].Attempts
		out.CensorEvents += results[i].CensorEvents
	}
	return out
}

// Rate is RateStats reduced to the success fraction.
func Rate(cfg Config, trials int) float64 {
	return RateStats(cfg, trials).Rate()
}

func rateSequential(cfg Config, trials int) RateResult {
	out := RateResult{Trials: trials}
	for i := 0; i < trials; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		res := Run(c)
		if res.Success {
			out.Succeeded++
		}
		if res.Established {
			out.Established++
		}
		out.Attempts += res.Attempts
		out.CensorEvents += res.CensorEvents
	}
	return out
}
