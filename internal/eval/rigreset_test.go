package eval

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"geneva/internal/censor/gfw"
	"geneva/internal/core"
	"geneva/internal/genetic"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// outcome renders everything a trial reports, its trace entry by entry, so
// a reset rig's trial and a fresh rig's compare as text.
func outcome(res Result) string {
	s := fmt.Sprintf("success=%v established=%v censor-events=%d attempts=%d\n",
		res.Success, res.Established, res.CensorEvents, res.Attempts)
	if res.Trace == nil {
		return s + "untraced\n"
	}
	return s + traceText(res.Trace)
}

// runFresh runs cfg on a rig of its own.
func runFresh(cfg Config) Result { return NewRig(cfg).run(cfg.Tries) }

// checkReset resets rig to b, runs it, and requires the outcome a fresh
// NewRig(b) gives.
func checkReset(t *testing.T, rig *Rig, b Config) {
	t.Helper()
	rig.reset(b)
	got := outcome(rig.run(b.Tries))
	if want := outcome(runFresh(b)); got != want {
		t.Fatalf("reset rig diverges from a fresh rig\n--- reset ---\n%s--- fresh ---\n%s", got, want)
	}
}

// TestRigResetMatchesFresh checks that reset leaves a rig exactly as
// NewRig builds it: after running one config, a rig reset to the next
// gives the Result and packet trace a fresh rig gives. One rig walks every
// registry country and protocol, each without a strategy and with every
// Table 2 row, with an uncensored cell after each country, so the walk
// switches censors, censor present and absent, protocols, and strategy and
// none. The pairs below cover the switches the walk does not make, and
// the same-country pairs check that the kept censor, reset in place,
// carries nothing of the last trial into the next: no hook's params, flow
// state, blackhole or residual window.
func TestRigResetMatchesFresh(t *testing.T) {
	s1, _ := strategies.ByNumber(1)
	var walk []Config
	seed := int64(300)
	for i, d := range Registry() {
		for _, proto := range d.Protocols {
			strats := []*core.Strategy{nil}
			for _, row := range d.Table2 {
				strats = append(strats, row.Parse())
			}
			for _, st := range strats {
				seed++
				walk = append(walk, Config{
					Country:   d.Country,
					Session:   SessionFor(d.Country, proto, true),
					Strategy:  st,
					Tries:     TriesFor(proto),
					Seed:      seed,
					WithTrace: true,
				})
			}
		}
		seed++
		none := Config{
			Country:   CountryNone,
			Session:   SessionFor(CountryNone, "http", true),
			Seed:      seed,
			WithTrace: true,
		}
		if i%2 == 0 {
			none.Strategy = s1.Parse()
		}
		walk = append(walk, none)
	}
	rig := NewRig(walk[0])
	rig.run(walk[0].Tries)
	for i, b := range walk[1:] {
		t.Run(fmt.Sprintf("walk/%d/%s", i+1, b.Country), func(t *testing.T) {
			checkReset(t, rig, b)
		})
	}

	china := Config{
		Country:   CountryChina,
		Session:   SessionFor(CountryChina, "http", true),
		Strategy:  s1.Parse(),
		Tries:     TriesFor("http"),
		Seed:      41,
		WithTrace: true,
	}
	with := func(mod func(*Config)) Config {
		c := china
		mod(&c)
		return c
	}
	// Iran blackholes the request, so an endpoint still armed to
	// retransmit would resend it.
	iran := func(c *Config) {
		c.Country, c.Session, c.Strategy = CountryIran, SessionFor(CountryIran, "http", true), nil
	}
	// Kazakhstan hijacks the unprotected request; Strategy 8 segments it.
	s8, _ := strategies.ByNumber(8)
	kazakhstan := func(s *core.Strategy) func(*Config) {
		return func(c *Config) {
			c.Country, c.Session, c.Strategy = CountryKazakhstan, SessionFor(CountryKazakhstan, "http", true), s
		}
	}
	// Turkmenistan tears the request down and taints the server for a
	// minute, so a kept window would tear down the next trial's handshake.
	tmc := func(c *Config) {
		c.Country, c.Session, c.Strategy = CountryTurkmenistan, SessionFor(CountryTurkmenistan, "http", true), nil
	}
	// An ablation hook of the kind internal/paper's GFW variants install:
	// it edits every box's params in place. At seed 44 Strategy 1 evades
	// through the RST-triggered resync the hook turns off.
	noRstResync := func(r *Rig) {
		for _, b := range r.Censor.(*gfw.GFW).Boxes {
			b.P.PRst = 0
		}
	}
	seed44 := func(c *Config) { c.Seed = 44 }
	lossy := netsim.Symmetric(netsim.Profile{Loss: 0.2, Duplicate: 0.1, Jitter: 2 * time.Millisecond})
	elsewhere := netip.MustParseAddr("198.18.0.2")
	// Client hooks of the kind the §5.1 follow-ups install: one moves each
	// data segment's sequence number back by one, the other rebases data
	// onto the last RST's sequence number, state it keeps inside itself.
	shiftSeq := func(r *Rig) {
		r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
			if len(p.TCP.Payload) > 0 {
				p.TCP.Seq--
			}
			return []*packet.Packet{p}
		}
	}
	matchRstSeq := func(r *Rig) {
		var rstSeq uint32
		var haveRst bool
		r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
			if p.TCP.Flags == packet.FlagRST {
				rstSeq, haveRst = p.TCP.Seq, true
			} else if len(p.TCP.Payload) > 0 && haveRst {
				p.TCP.Seq = rstSeq
			}
			return []*packet.Packet{p}
		}
	}
	for _, tc := range []struct {
		name string
		a, b Config
		// partial stops a's run after a few events, so its packets are
		// still queued and its timers pending when the rig is reset.
		partial bool
		// censored requires a's run to draw a censorship event, so the
		// censor b reuses holds the state the pair is about. Same-country
		// pairs run at one seed, so b's flow is a's 4-tuple.
		censored bool
	}{
		{name: "censor-to-none", a: china, b: with(func(c *Config) { c.Country = CountryNone })},
		{name: "none-to-censor", a: with(func(c *Config) { c.Country = CountryNone }), b: china},
		{name: "strategy-to-none", a: china, b: with(func(c *Config) { c.Strategy = nil })},
		{name: "none-to-strategy", a: with(func(c *Config) { c.Strategy = nil }), b: china},
		{name: "impaired-to-clean", a: with(func(c *Config) { c.Impairments = lossy }), b: china},
		{name: "impaired-to-clean-blackholed", a: with(func(c *Config) { c.Impairments = lossy; iran(c) }), b: with(iran)},
		{name: "impaired-interrupted-to-clean", a: with(func(c *Config) { c.Impairments = lossy }), b: china, partial: true},
		{name: "interrupted-to-impaired", a: china, b: with(func(c *Config) { c.Impairments = lossy; c.Seed = 43 }), partial: true},
		{name: "address-override-to-default", a: with(func(c *Config) { c.ClientAddress = elsewhere }), b: china},
		{name: "default-to-address-override", a: china, b: with(func(c *Config) { c.ClientAddress = elsewhere })},
		{name: "traced-to-untraced", a: china, b: with(func(c *Config) { c.WithTrace = false })},
		{name: "untraced-to-traced", a: with(func(c *Config) { c.WithTrace = false }), b: china},
		{name: "client-hook-to-none", a: with(func(c *Config) { c.Hook = shiftSeq }), b: china},
		{name: "none-to-client-hook", a: china, b: with(func(c *Config) { c.Hook = matchRstSeq })},
		{name: "client-os", a: with(func(c *Config) { c.ClientOS = tcpstack.Windows10 }), b: china},
		{name: "dns-retries-to-http", a: with(func(c *Config) {
			c.Session, c.Tries, c.Strategy = SessionFor(CountryChina, "dns", true), TriesFor("dns"), nil
		}), b: china},
		{name: "china-hooked-to-china", a: with(func(c *Config) { seed44(c); c.Hook = noRstResync }), b: with(seed44)},
		{name: "kazakhstan-hijacked-to-strategy", a: with(kazakhstan(nil)), b: with(kazakhstan(s8.Parse())), censored: true},
		{name: "iran-blackholed-to-iran", a: with(iran), b: with(iran), censored: true},
		{name: "tmc-residual-to-tmc", a: with(tmc), b: with(tmc), censored: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := NewRig(tc.a)
			if tc.partial {
				rig.Client.Connect(ServerAddr, rig.Session.Port, rig.Session.NewClient())
				rig.Net.Run(3)
				if rig.Net.Quiet() {
					t.Fatal("the interrupted run left nothing queued")
				}
			} else if res := rig.run(tc.a.Tries); tc.censored && res.CensorEvents == 0 {
				t.Fatal("the first trial drew no censorship event")
			}
			kept := rig.Censor
			checkReset(t, rig, tc.b)
			if tc.a.Country == tc.b.Country && rig.Censor != kept {
				t.Error("the rig built a new censor for an unchanged country")
			}
			if !tc.b.WithTrace && rig.Net.Trace != nil {
				t.Error("an untraced config kept the last trial's trace")
			}
		})
	}
}

// TestRigResetEngineReuse checks that a reset rig keeps its compiled
// engine only while the strategy's canonical text is unchanged: a strategy
// mutated in place and rescored through the same pointer gets a new
// engine, a strategy printing like an earlier one that was since mutated
// runs its own tree, and genetic.Minimize, which mutates and rescores one
// pointer, ends where it does with a fresh rig per trial.
func TestRigResetEngineReuse(t *testing.T) {
	s11, _ := strategies.ByNumber(11)
	base := Config{
		Country: CountryKazakhstan,
		Session: SessionFor(CountryKazakhstan, "http", true),
		Tries:   TriesFor("http"),
		Seed:    5,
		Workers: 1, // the trials run in turn on this goroutine's pooled rig
	}
	withStrategy := func(s *core.Strategy) Config {
		c := base
		c.Strategy = s
		return c
	}

	t.Run("same-pointer-mutated", func(t *testing.T) {
		s := s11.Parse()
		rig := NewRig(withStrategy(s))
		if !rig.run(1).Success || Rate(withStrategy(s), 10) != 1 {
			t.Fatal("Strategy 11 should beat Kazakhstan HTTP")
		}
		s.Outbound[0].Action = core.Send() // a slot write, as Minimize makes
		s.Invalidate()
		checkReset(t, rig, withStrategy(s))
		if got, want := Rate(withStrategy(s), 10), Rate(withStrategy(s.Clone()), 10); got != want || got != 0 {
			t.Errorf("rescoring the mutated pointer gives %v, a fresh clone %v; want both 0", got, want)
		}
	})

	t.Run("same-text-after-donor-mutated", func(t *testing.T) {
		donor := s11.Parse()
		rig := NewRig(withStrategy(donor))
		rig.run(1)
		donor.Outbound[0].Action.Kind = core.ActDrop
		donor.Invalidate()
		checkReset(t, rig, withStrategy(s11.Parse()))
		if !rig.run(1).Success {
			t.Error("the kept engine ran the mutated donor's tree")
		}
	})

	t.Run("minimize", func(t *testing.T) {
		s9, _ := strategies.ByNumber(9) // draws from the engine stream
		const trials = 10
		pooled := func(s *core.Strategy) float64 { return Rate(withStrategy(s), trials) }
		fresh := func(s *core.Strategy) float64 {
			won := 0
			for i := 0; i < trials; i++ {
				c := withStrategy(s)
				c.Seed += int64(i) * trialSeedStride
				if runFresh(c).Success {
					won++
				}
			}
			return float64(won) / trials
		}
		gotS, gotF := genetic.Minimize(s9.Parse(), pooled, 0)
		wantS, wantF := genetic.Minimize(s9.Parse(), fresh, 0)
		if gotS.String() != wantS.String() || gotF != wantF {
			t.Errorf("pooled rigs minimize to %s (%v), fresh rigs to %s (%v)", gotS, gotF, wantS, wantF)
		}
	})
}
