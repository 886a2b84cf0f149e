package paper

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/packet"
)

// LocalizeCensor performs the §6 TTL-limited probe experiment for one
// protocol: complete the handshake (and any dialogue) normally, then send
// the forbidden query with increasing TTLs until the censor responds. It
// returns the first TTL that elicited censorship (the censor's hop
// distance), or -1. Five trials are probed per TTL so a baseline DPI miss
// does not mislocate the box. Only packets carrying the protocol's
// forbidden token are TTL-limited: the handshake and any sign-in dialogue
// proceed normally, as in the paper's §6 method.
func LocalizeCensor(protocol string, seed int64) int {
	_, forbidden := eval.ProtocolFacts(protocol)
	token := []byte(forbidden)
	for ttl := uint8(1); ttl <= 12; ttl++ {
		cfg := eval.Trial(eval.CountryChina, protocol, nil, seed)
		cfg.Hook = func(r *eval.Rig) {
			r.Client.Outbound = func(p *packet.Packet) []*packet.Packet {
				if len(p.TCP.Payload) > 0 && bytes.Contains(p.TCP.Payload, token) {
					p.IP.TTL = ttl
				}
				return []*packet.Packet{p}
			}
		}
		if eval.RateStats(cfg, 5).Censored > 0 {
			return int(ttl)
		}
	}
	return -1
}

// Figure3Result is the multi-box evidence (the paper's Figure 3 argument):
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
	for _, proto := range eval.CensoredProtocols(eval.CountryChina) {
		off, _ := eval.ProtocolFacts(proto)
		res.StrategyRates[proto] = eval.Rate(eval.Trial(eval.CountryChina, proto, s5, 500+off), trials)
		res.CensorHops[proto] = LocalizeCensor(proto, 900+off)
	}
	return res
}

// FormatFigure3 renders the result.
func FormatFigure3(r Figure3Result) string {
	var b strings.Builder
	b.WriteString("Figure 3 evidence: distinct per-protocol censorship boxes, colocated\n\n")
	fmt.Fprintf(&b, "%-8s %22s %12s\n", "Protocol", "Strategy 5 success", "Censor hop")
	for _, p := range eval.CensoredProtocols(eval.CountryChina) {
		fmt.Fprintf(&b, "%-8s %21.0f%% %12d\n", p, 100*r.StrategyRates[p], r.CensorHops[p])
	}
	b.WriteString("\nSame hop for every protocol => colocated boxes;\n")
	b.WriteString("divergent success for a TCP-level strategy => separate network stacks.\n")
	return b.String()
}

func printFigure3(w io.Writer, trials int) {
	header(w, "Figure 3: multiple censorship boxes")
	fmt.Fprint(w, FormatFigure3(Figure3(sample(trials, 2))))
}
