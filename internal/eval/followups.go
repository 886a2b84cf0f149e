package eval

import (
	"fmt"
	"strings"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor/kazakh"
	"geneva/internal/core"
	"geneva/internal/packet"
	"geneva/internal/strategies"
)

// --- §3: client-side strategies do not generalize (E6) ---

// ClientSideGeneralization evaluates every server-side analog of the
// published client-side strategies and returns name -> success rate. The
// paper's finding: none of them evade (rates stay at the baseline).
func ClientSideGeneralization(trials int) map[string]float64 {
	out := make(map[string]float64)
	for i, s := range strategies.ClientSideAnalogs() {
		cfg := Config{
			Country:  CountryChina,
			Session:  SessionFor(CountryChina, "http", true),
			Strategy: s.Parse(),
			Seed:     int64(3000 + i),
		}
		out[s.Name] = Rate(cfg, trials)
	}
	return out
}

// ClientSideTCBTeardownWorks shows the §3 contrast: the same TCB-teardown
// packet that fails from the server evades when the *client* sends it (a
// TTL-limited RST after the handshake, the seminal client-side strategy).
func ClientSideTCBTeardownWorks(trials int) float64 {
	succ := 0
	for i := 0; i < trials; i++ {
		cfg := Config{
			Country: CountryChina,
			Session: SessionFor(CountryChina, "http", true),
			Seed:    int64(4000 + i),
			Hook: func(r *Rig) {
				sentTeardown := false
				r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
					// After the handshake completes (first pure ACK),
					// insert a TTL-limited RST with the correct seq.
					if !sentTeardown && p.TCP.Flags == packet.FlagACK && len(p.TCP.Payload) == 0 {
						sentTeardown = true
						rst := p.Clone()
						rst.TCP.Flags = packet.FlagRST
						rst.IP.TTL = 8 // reaches the censor, not the server
						return []*packet.Packet{p, rst}
					}
					return []*packet.Packet{p}
				}
			},
		}
		if Run(cfg).Success {
			succ++
		}
	}
	return float64(succ) / float64(trials)
}

// --- §5.1 follow-ups (E7, E8, E9) ---

// seqOffsetHook shifts the sequence number of every client data packet by
// delta (the paper's desynchronization-confirmation instrumentation).
func seqOffsetHook(delta int32) func(*Rig) {
	return func(r *Rig) {
		r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
			if len(p.TCP.Payload) > 0 {
				p.TCP.Seq += uint32(delta)
			}
			return []*packet.Packet{p}
		}
	}
}

// DesyncConfirmation reproduces the §5.1 experiment for Strategy 1: with
// the client's forbidden request decremented by 1, censorship returns
// roughly half the time (the resync-state entry rate); without the
// strategy, the decremented request is never censored.
func DesyncConfirmation(trials int) (withStrategy, withoutStrategy float64) {
	s1, _ := byNumber(1)
	censored := func(strategy *core.Strategy, seedBase int64) float64 {
		n := 0
		for i := 0; i < trials; i++ {
			cfg := Config{
				Country:  CountryChina,
				Session:  SessionFor(CountryChina, "http", true),
				Strategy: strategy,
				Seed:     seedBase + int64(i),
				Hook:     seqOffsetHook(-1),
			}
			if Run(cfg).CensorEvents > 0 {
				n++
			}
		}
		return float64(n) / float64(trials)
	}
	return censored(s1, 5000), censored(nil, 6000)
}

// dropInducedRstHook makes the client swallow the RSTs its own stack emits
// (the §5.1 instrumentation separating Strategy 5 from Strategy 6).
func dropInducedRstHook(r *Rig) {
	r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
		if p.TCP.Flags == packet.FlagRST {
			return nil
		}
		return []*packet.Packet{p}
	}
}

// InducedRstCriticality reproduces E8: dropping the induced RST kills
// Strategy 5 (the GFW re-syncs on that RST; measured over FTP, where the
// strategy peaks) but leaves Strategy 6 intact (it re-syncs on the
// corrupted SYN+ACK instead; measured over HTTP, where rule 1 is the only
// active trigger, matching the paper's "equally effective" finding).
func InducedRstCriticality(trials int) (s5Normal, s5Dropped, s6Normal, s6Dropped float64) {
	rate := func(num int, proto string, drop bool, seed int64) float64 {
		s, _ := byNumber(num)
		cfg := Config{
			Country:  CountryChina,
			Session:  SessionFor(CountryChina, proto, true),
			Strategy: s,
			Seed:     seed,
		}
		if drop {
			cfg.Hook = dropInducedRstHook
		}
		return Rate(cfg, trials)
	}
	return rate(5, "ftp", false, 7000), rate(5, "ftp", true, 7100),
		rate(6, "http", false, 7200), rate(6, "http", true, 7300)
}

// matchRstSeqHook records the last RST the client emitted and rebases the
// client's data packets onto its sequence number (E9: confirming Strategy 7
// re-syncs on the induced RST).
func matchRstSeqHook(r *Rig) {
	var rstSeq uint32
	var haveRst bool
	r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
		if p.TCP.Flags == packet.FlagRST {
			rstSeq = p.TCP.Seq
			haveRst = true
		} else if len(p.TCP.Payload) > 0 && haveRst {
			p.TCP.Seq = rstSeq
		}
		return []*packet.Packet{p}
	}
}

// Strategy7ResyncTarget reproduces E9: adjusting the client's sequence
// numbers to the induced RST's restores censorship under Strategy 7,
// proving the GFW synchronized on that packet.
func Strategy7ResyncTarget(trials int) (censoredRate float64) {
	s7, _ := byNumber(7)
	n := 0
	for i := 0; i < trials; i++ {
		cfg := Config{
			Country:  CountryChina,
			Session:  SessionFor(CountryChina, "http", true),
			Strategy: s7,
			Seed:     8000 + int64(i),
			Hook:     matchRstSeqHook,
		}
		if Run(cfg).CensorEvents > 0 {
			n++
		}
	}
	return float64(n) / float64(trials)
}

// --- §4.2 residual censorship (E10) ---

// ResidualCensorship measures, per protocol, whether a benign follow-up
// connection right after a censorship event is torn down, and whether it
// recovers after the window passes. The paper: HTTP has ~90 s of residual
// censorship; DNS, FTP, HTTPS, and SMTP have none.
type ResidualResult struct {
	Protocol         string
	ImmediateBlocked bool
	AfterWindowOK    bool
}

// ResidualCensorshipExperiment runs E10 for every protocol.
func ResidualCensorshipExperiment() []ResidualResult {
	var out []ResidualResult
	for _, proto := range ChinaProtocols {
		// A rig whose censor state persists across connections.
		cfg := Config{
			Country: CountryChina,
			Session: SessionFor(CountryChina, proto, true),
			Seed:    int64(9000 + protoSeed(proto)),
		}
		rig := NewRig(cfg)
		// Trip the censor (retry until it fires; the baseline miss rate
		// makes a single shot flaky).
		for i := 0; i < 10 && rig.CensorEvents() == 0; i++ {
			rig.Attempt()
		}
		if rig.CensorEvents() == 0 {
			rig.rngs.Release()
			out = append(out, ResidualResult{Protocol: proto})
			continue
		}
		// Immediately retry with *benign* content on the same server.
		benign := SessionFor(CountryChina, proto, false)
		rig.Session = benign
		rig.Server.NewServerApp = benign.ServerFactory()
		app := rig.Attempt()
		immediateBlocked := !app.Succeeded()
		// Wait out the residual window and retry.
		rig.Net.Clock.Advance(95 * time.Second)
		app2 := rig.Attempt()
		rig.rngs.Release()
		out = append(out, ResidualResult{
			Protocol:         proto,
			ImmediateBlocked: immediateBlocked,
			AfterWindowOK:    app2.Succeeded(),
		})
	}
	return out
}

// --- §5.3 Kazakhstan sweeps (E11, E12, E13) ---

// kzRate evaluates a raw DSL strategy against Kazakhstan HTTP.
func kzRate(dsl string, trials int, seed int64) float64 {
	cfg := Config{
		Country:  CountryKazakhstan,
		Session:  SessionFor(CountryKazakhstan, "http", true),
		Strategy: core.MustParse(dsl),
		Seed:     seed,
	}
	return Rate(cfg, trials)
}

// TripleLoadSweep reproduces E11: Strategy 9 needs >= 3 back-to-back
// payload-bearing SYN+ACKs; payload size does not matter; an empty SYN+ACK
// in the middle breaks it.
type TripleLoadSweep struct {
	OneLoad, TwoLoads, ThreeLoads, FourLoads float64
	TwoLoadsPlusEmptyBetween                 float64
	OneByte, Large                           float64
}

// KazakhTripleLoadSweep runs the sweep.
func KazakhTripleLoadSweep(trials int) TripleLoadSweep {
	return TripleLoadSweep{
		OneLoad:    kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}-| \/ `, trials, 100),
		TwoLoads:   kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate,)-| \/ `, trials, 101),
		ThreeLoads: kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,),)-| \/ `, trials, 102),
		FourLoads:  kzRate(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate(duplicate,),),)-| \/ `, trials, 103),
		// load, empty, load: the empty SYN+ACK resets the censor's run.
		TwoLoadsPlusEmptyBetween: kzRate(`[TCP:flags:SA]-duplicate(tamper{TCP:load:corrupt},duplicate(,tamper{TCP:load:corrupt}))-| \/ `, trials, 104),
		OneByte:                  kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:x}(duplicate(duplicate,),)-| \/ `, trials, 105),
		Large:                    kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:`+strings.Repeat("A", 400)+`}(duplicate(duplicate,),)-| \/ `, trials, 106),
	}
}

// DoubleGetSweep reproduces E12's minimality findings.
type DoubleGetSweep struct {
	FullPrefix float64 // "GET / HTTP1." x2: works
	Truncated  float64 // "GET / HTTP1" (no dot) x2: fails
	SingleGet  float64 // one GET only: fails
	LongerPath float64 // longer path, still well-formed: works
}

// KazakhDoubleGetSweep runs the sweep.
func KazakhDoubleGetSweep(trials int) DoubleGetSweep {
	return DoubleGetSweep{
		FullPrefix: kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| \/ `, trials, 110),
		Truncated:  kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1}(duplicate,)-| \/ `, trials, 111),
		SingleGet:  kzRate(`[TCP:flags:SA]-duplicate(tamper{TCP:load:replace:GET / HTTP1.},)-| \/ `, trials, 112),
		LongerPath: kzRate(`[TCP:flags:SA]-tamper{TCP:load:replace:GET /index.html HTTP/1.1}(duplicate,)-| \/ `, trials, 113),
	}
}

// KazakhFlagSweep reproduces E13: the Null Flags strategy works for any
// flag combination avoiding FIN, RST, SYN, and ACK. It returns
// flags-string -> success rate.
func KazakhFlagSweep(trials int) map[string]float64 {
	out := make(map[string]float64)
	for i, flags := range []string{"", "P", "U", "PU", "S", "A", "R", "F", "PA"} {
		dsl := fmt.Sprintf(`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:%s},)-| \/ `, flags)
		key := flags
		if key == "" {
			key = "(none)"
		}
		out[key] = kzRate(dsl, trials, int64(120+i))
	}
	return out
}

// KazakhProbing reproduces the §5.3 probing observations using the model's
// counters: two forbidden GETs injected during the handshake elicit a
// censor response; a forbidden GET followed by a benign one does not (the
// censor processes the *second* request).
func KazakhProbing() (twoForbidden, forbiddenThenBenign bool) {
	probe := func(first, second string) bool {
		var kz *kazakh.Kazakh
		cfg := Config{
			Country: CountryKazakhstan,
			Session: SessionFor(CountryKazakhstan, "http", true),
			Strategy: core.MustParse(fmt.Sprintf(
				`[TCP:flags:SA]-duplicate(tamper{TCP:load:replace:%s},duplicate(tamper{TCP:load:replace:%s},))-| \/ `,
				first, second)),
			Seed: 130,
			Hook: func(r *Rig) { kz = r.Censor.(*kazakh.Kazakh) },
		}
		Run(cfg)
		return kz.ProbeResponses > 0
	}
	const forbidden = "GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"
	const benign = "GET / HTTP/1.1\r\nHost: allowed.example\r\n\r\n"
	return probe(forbidden, forbidden), probe(forbidden, benign)
}

// --- §5.2 port sensitivity (E15) and statelessness (E17) ---

// PortSensitivity reports, per country, whether hosting the HTTP server on
// a non-default port (8080) defeats censorship with no strategy at all.
// The paper: yes for India, Iran, and Kazakhstan; no for China.
func PortSensitivity() map[string]bool {
	out := make(map[string]bool)
	for _, country := range CensoredCountries() {
		proto := SweepProtocol(country)
		session := SessionFor(country, proto, true)
		session.Port = 8080
		cfg := Config{Country: country, Session: session, Tries: TriesFor(proto), Seed: 140}
		// "Defeats censorship" = the forbidden request goes through.
		rate := Rate(cfg, 20)
		out[country] = rate > 0.9
	}
	return out
}

// Statelessness reproduces E17: a forbidden request fired with no prior
// handshake still triggers India's and Iran's censors (they track no
// state), but not China's (the GFW requires a TCB from a SYN).
func Statelessness() map[string]bool {
	out := make(map[string]bool)
	for _, country := range CensoredCountries() {
		proto := SweepProtocol(country)
		cfg := Config{
			Country: country,
			Session: SessionFor(country, proto, true),
			Seed:    150,
		}
		rig := NewRig(cfg)
		// A bare forbidden trigger on the censor's sweep protocol, no
		// handshake (HTTPS-only censors like Jio get a ClientHello).
		var port uint16
		var payload []byte
		switch proto {
		case "https":
			port, payload = 443, apps.EncodeClientHello("www.wikipedia.org")
		case "dns":
			port, payload = 53, apps.EncodeDNSQuery("www.wikipedia.org")
		default:
			port, payload = 80, []byte("GET / HTTP/1.1\r\nHost: blocked.example\r\nAccept: */*\r\n\r\n")
		}
		pkt := packet.Get(ClientAddr, ServerAddr, 45000, port)
		pkt.TCP.Flags = packet.FlagPSH | packet.FlagACK
		pkt.TCP.Seq = 1000
		pkt.TCP.Payload = payload
		rig.Net.Send(rig.Client, pkt)
		rig.Net.Run(0)
		out[country] = rig.CensorEvents() > 0
		rig.rngs.Release()
	}
	return out
}
