package eval

import (
	"bytes"
	"fmt"
	"strings"

	"geneva/internal/packet"
	"geneva/internal/strategies"
)

// Waterfall runs one traced connection with the given strategy and renders
// the packet exchange in the style of Figures 1 and 2. The country picks
// the censor ("" for a censor-free diagram of pure client/server behaviour).
func Waterfall(country string, strat *strategies.Strategy, seed int64) string {
	cfg := Trial(country, "http", nil, seed)
	cfg.WithTrace = true
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
// 1-8 (the paper's Figure 1). Each strategy is drawn at its EvadingSeed, so
// the probabilistic strategies show their successful path.
func Figure1() string {
	var b strings.Builder
	b.WriteString(Waterfall(CountryChina, nil, 1))
	b.WriteByte('\n')
	for _, s := range strategies.China() {
		s := s
		seed := EvadingSeed(Trial(CountryChina, "http", s.Parse(), 0))
		b.WriteString(Waterfall(CountryChina, &s, seed))
		b.WriteByte('\n')
	}
	return b.String()
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

// LocalizeCensor performs the §6 TTL-limited probe experiment for one
// protocol: complete the handshake (and any dialogue) normally, then send
// the forbidden query with increasing TTLs until the censor responds. It
// returns the first TTL that elicited censorship (the censor's hop
// distance), or -1. Five trials are probed per TTL so a baseline DPI miss
// does not mislocate the box. Only packets carrying the protocol's
// forbidden token are TTL-limited: the handshake and any sign-in dialogue
// proceed normally, as in the paper's §6 method.
func LocalizeCensor(protocol string, seed int64) int {
	token := []byte(protocolRow(protocol).token)
	for ttl := uint8(1); ttl <= 12; ttl++ {
		cfg := Trial(CountryChina, protocol, nil, seed)
		cfg.Hook = func(r *Rig) {
			r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
				if len(p.TCP.Payload) > 0 && bytes.Contains(p.TCP.Payload, token) {
					p.IP.TTL = ttl
				}
				return []*packet.Packet{p}
			}
		}
		if RateStats(cfg, 5).Censored > 0 {
			return int(ttl)
		}
	}
	return -1
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
	for _, proto := range CensoredProtocols(CountryChina) {
		off := protocolRow(proto).seed
		res.StrategyRates[proto] = Rate(Trial(CountryChina, proto, s5, 500+off), trials)
		res.CensorHops[proto] = LocalizeCensor(proto, 900+off)
	}
	return res
}

// FormatFigure3 renders the result.
func FormatFigure3(r Figure3Result) string {
	var b strings.Builder
	b.WriteString("Figure 3 evidence: distinct per-protocol censorship boxes, colocated\n\n")
	fmt.Fprintf(&b, "%-8s %22s %12s\n", "Protocol", "Strategy 5 success", "Censor hop")
	for _, p := range CensoredProtocols(CountryChina) {
		fmt.Fprintf(&b, "%-8s %21.0f%% %12d\n", p, 100*r.StrategyRates[p], r.CensorHops[p])
	}
	b.WriteString("\nSame hop for every protocol => colocated boxes;\n")
	b.WriteString("divergent success for a TCP-level strategy => separate network stacks.\n")
	return b.String()
}
