package eval

import (
	"bytes"
	"fmt"
	"strings"

	"geneva/internal/packet"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// Waterfall runs one traced connection with the given strategy and renders
// the packet exchange in the style of Figures 1 and 2. The country picks
// the censor ("" for a censor-free diagram of pure client/server behaviour).
func Waterfall(country string, strat *strategies.Strategy, seed int64) string {
	proto := "http"
	cfg := Config{
		Country:   country,
		Session:   SessionFor(country, proto, true),
		ClientOS:  tcpstack.DefaultClient,
		Seed:      seed,
		WithTrace: true,
	}
	title := "Normal behavior"
	if strat != nil {
		cfg.Strategy = strat.Parse()
		title = fmt.Sprintf("Strategy %d: %s", strat.Number, strat.Name)
	}
	res := Run(cfg)
	out := res.Trace.Waterfall(title)
	verdict := "censored"
	if res.Success {
		verdict = "evaded censorship"
	}
	if country == CountryNone {
		verdict = "no censor present"
	}
	return out + fmt.Sprintf("  => %s\n", verdict)
}

// Figure1 renders the China waterfalls: normal behaviour plus Strategies
// 1-8 (the paper's Figure 1). Seeds are chosen so the probabilistic
// strategies show their successful path.
func Figure1() string {
	var b strings.Builder
	b.WriteString(Waterfall(CountryChina, nil, 1))
	b.WriteByte('\n')
	for _, s := range strategies.China() {
		s := s
		b.WriteString(Waterfall(CountryChina, &s, figure1Seed(s.Number)))
		b.WriteByte('\n')
	}
	return b.String()
}

// EvadingSeed finds a seed whose trial evades for the given strategy, so a
// waterfall shows the strategy's successful path (as the paper's figures
// do). Falls back to seed 1 if none of the first 500 evade.
func EvadingSeed(country string, s strategies.Strategy) int64 {
	for seed := int64(1); seed < 500; seed++ {
		cfg := Config{
			Country:  country,
			Session:  SessionFor(country, "http", true),
			Strategy: s.Parse(),
			Seed:     seed,
		}
		if Run(cfg).Success {
			return seed
		}
	}
	return 1
}

// figure1Seed picks, per strategy, a seed whose China trial evades.
func figure1Seed(number int) int64 {
	s, _ := strategies.ByNumber(number)
	return EvadingSeed(CountryChina, s)
}

// Figure2 renders the Kazakhstan waterfalls (Strategies 9-11).
func Figure2() string {
	var b strings.Builder
	for _, s := range []strategies.Strategy{
		strategies.Strategy9, strategies.Strategy10, strategies.Strategy11,
	} {
		s := s
		b.WriteString(Waterfall(CountryKazakhstan, &s, 1))
		b.WriteByte('\n')
	}
	return b.String()
}

// forbiddenToken returns a byte substring that appears only in the
// protocol's forbidden message, so TTL-limiting instrumentation can target
// exactly the censored query (the paper's §6 method: the handshake and any
// sign-in dialogue proceed normally; only the query is TTL-limited).
func forbiddenToken(protocol string) []byte {
	switch protocol {
	case "dns", "https":
		return []byte("wikipedia")
	case "ftp", "http":
		return []byte("ultrasurf")
	case "smtp":
		return []byte("tibetalk")
	}
	return nil
}

// LocalizeCensor performs the §6 TTL-limited probe experiment for one
// protocol: complete the handshake (and any dialogue) normally, then send
// the forbidden query with increasing TTLs until the censor responds. It
// returns the first TTL that elicited censorship (the censor's hop
// distance), or -1. Several seeds are probed per TTL so a baseline DPI
// miss does not mislocate the box.
func LocalizeCensor(protocol string, seed int64) int {
	for ttl := 1; ttl <= 12; ttl++ {
		for rep := int64(0); rep < 5; rep++ {
			if probeAtTTL(protocol, uint8(ttl), seed+rep*31) {
				return ttl
			}
		}
	}
	return -1
}

// probeAtTTL runs a connection whose forbidden-query packets carry the
// given TTL and reports whether censorship was triggered.
func probeAtTTL(protocol string, ttl uint8, seed int64) bool {
	token := forbiddenToken(protocol)
	cfg := Config{
		Country: CountryChina,
		Session: SessionFor(CountryChina, protocol, true),
		Seed:    seed,
		Hook: func(r *Rig) {
			r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
				if len(p.TCP.Payload) > 0 && bytes.Contains(p.TCP.Payload, token) {
					p.IP.TTL = ttl
				}
				return []*packet.Packet{p}
			}
		},
	}
	res := Run(cfg)
	return res.CensorEvents > 0
}

// Figure3 produces the multi-box evidence (the paper's Figure 3 argument):
// (a) one TCP-level strategy's success per protocol (heterogeneity), and
// (b) the censorship hop per protocol from TTL-limited probes (colocation).
type Figure3Result struct {
	// StrategyRates maps protocol -> Strategy 5 success rate.
	StrategyRates map[string]float64
	// CensorHops maps protocol -> first TTL eliciting censorship.
	CensorHops map[string]int
}

// Figure3 runs both halves of the experiment.
func Figure3(trials int) Figure3Result {
	res := Figure3Result{
		StrategyRates: make(map[string]float64),
		CensorHops:    make(map[string]int),
	}
	s5, _ := byNumber(5)
	for _, proto := range ChinaProtocols {
		cfg := Config{
			Country:  CountryChina,
			Session:  SessionFor(CountryChina, proto, true),
			Strategy: s5,
			Tries:    TriesFor(proto),
			Seed:     int64(500 + protoSeed(proto)),
		}
		res.StrategyRates[proto] = Rate(cfg, trials)
		res.CensorHops[proto] = LocalizeCensor(proto, int64(900+protoSeed(proto)))
	}
	return res
}

// FormatFigure3 renders the result.
func FormatFigure3(r Figure3Result) string {
	var b strings.Builder
	b.WriteString("Figure 3 evidence: distinct per-protocol censorship boxes, colocated\n\n")
	fmt.Fprintf(&b, "%-8s %22s %12s\n", "Protocol", "Strategy 5 success", "Censor hop")
	for _, p := range ChinaProtocols {
		fmt.Fprintf(&b, "%-8s %21.0f%% %12d\n", p, 100*r.StrategyRates[p], r.CensorHops[p])
	}
	b.WriteString("\nSame hop for every protocol => colocated boxes;\n")
	b.WriteString("divergent success for a TCP-level strategy => separate network stacks.\n")
	return b.String()
}
