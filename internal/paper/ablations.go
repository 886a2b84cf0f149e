package paper

import (
	"fmt"
	"io"

	"geneva/internal/censor/gfw"
	"geneva/internal/core"
	"geneva/internal/eval"
)

// This file ablates the GFW model's load-bearing design choices, showing
// that each mechanism in DESIGN.md is necessary to reproduce the paper's
// observations — and what the world would look like without it.

// gfwVariant measures a strategy's success rate against the registry's
// China censor — the model Table 2 measures — with every box's parameters
// rewritten by mod.
func gfwVariant(mod func(*gfw.Params), strategy *core.Strategy, proto string, trials int, seed int64) float64 {
	cfg := eval.Trial(eval.CountryChina, proto, strategy, seed)
	cfg.Hook = func(r *eval.Rig) {
		for _, b := range r.Censor.(*gfw.GFW).Boxes {
			mod(&b.P)
		}
	}
	return eval.Rate(cfg, trials)
}

// AblationResult contrasts a strategy's success with a mechanism present
// and removed.
type AblationResult struct {
	Name             string
	Strategy         int
	Protocol         string
	WithMechanism    float64
	WithoutMechanism float64
	// AidsEvasion says which way the mechanism cuts: true for censor
	// *bugs* (removing them should collapse the strategy), false for
	// censor *capabilities* (removing them should boost the strategy).
	AidsEvasion bool
	// Explanation says what the contrast demonstrates.
	Explanation string
}

// Ablations runs the model's ablation suite.
func Ablations(trials int) []AblationResult {
	identity := func(*gfw.Params) {}
	s1, _ := byNumber(1)
	s3, _ := byNumber(3)
	s4, _ := byNumber(4)
	s5, _ := byNumber(5)
	s8, _ := byNumber(8)

	return []AblationResult{
		{
			Name: "resync trigger 2 (server RST)", Strategy: 1, Protocol: "http",
			WithMechanism:    gfwVariant(identity, s1, "http", trials, 100),
			WithoutMechanism: gfwVariant(func(p *gfw.Params) { p.PRst = 0 }, s1, "http", trials, 200),
			AidsEvasion:      true,
			Explanation:      "without the RST-triggered resync state, Strategy 1 collapses to the baseline",
		},
		{
			Name: "resync trigger 3 (corrupt-ack SYN+ACK)", Strategy: 3, Protocol: "ftp",
			WithMechanism:    gfwVariant(identity, s3, "ftp", trials, 300),
			WithoutMechanism: gfwVariant(func(p *gfw.Params) { p.PCorruptAck = 0 }, s3, "ftp", trials, 400),
			AidsEvasion:      true,
			Explanation:      "trigger 3 is the whole of the corrupt-ack family's power on FTP",
		},
		{
			Name: "clean-ACK re-acquisition", Strategy: 4, Protocol: "ftp",
			WithMechanism:    gfwVariant(identity, s4, "ftp", trials, 500),
			WithoutMechanism: gfwVariant(func(p *gfw.Params) { p.PReacquire = 0 }, s4, "ftp", trials, 600),
			AidsEvasion:      false, // a censor recovery capability
			Explanation:      "re-acquisition is what halves Strategy 4 relative to Strategy 3 (33% vs 65%)",
		},
		{
			// Measured on Strategy 4 *plus a benign payload-bearing
			// SYN+ACK retransmission* would be the purest probe; using
			// Strategy 5 with PLoadSA knocked out isolates the same
			// path: corrupt-ack resync whose re-acquisition the payload
			// accounting must block.
			Name: "SYN+ACK payload accounting", Strategy: 5, Protocol: "ftp",
			WithMechanism: gfwVariant(func(p *gfw.Params) { p.PLoadSA = 0 }, s5, "ftp", trials, 700),
			WithoutMechanism: gfwVariant(func(p *gfw.Params) {
				p.PLoadSA = 0
				p.PayloadAccounting = false
			}, s5, "ftp", trials, 800),
			AidsEvasion: true,
			Explanation: "the accounting bug blocks re-acquisition; without it Strategy 5 degrades toward Strategy 4",
		},
		{
			Name: "SMTP cannot reassemble", Strategy: 8, Protocol: "smtp",
			WithMechanism:    gfwVariant(identity, s8, "smtp", trials, 900),
			WithoutMechanism: gfwVariant(func(p *gfw.Params) { p.PNoReassembly = 0 }, s8, "smtp", trials, 1000),
			AidsEvasion:      true,
			Explanation:      "give the SMTP box reassembly and Table 2's unique 100% cell disappears",
		},
	}
}

// SingleBoxAblation contrasts the multi-box architecture (§6, Figure 3b)
// with a counterfactual single shared box: if China ran ONE network stack
// for all protocols, a TCP-level strategy would succeed (or fail) uniformly
// across applications. It returns Strategy 5's per-protocol success under
// the real model and under a single-box model that reuses the HTTP box's
// transport parameters for every protocol's DPI.
func SingleBoxAblation(trials int) (multiBox, singleBox map[string]float64) {
	s5, _ := byNumber(5)
	multiBox = make(map[string]float64)
	singleBox = make(map[string]float64)
	for _, proto := range eval.CensoredProtocols(eval.CountryChina) {
		off, _ := eval.ProtocolFacts(proto)
		multiBox[proto] = gfwVariant(func(*gfw.Params) {}, s5, proto, trials, 1100+off)
		// Single box: every protocol handled by one stack with the HTTP
		// box's transport behaviour.
		httpParams := gfw.ChinaParams()[2]
		singleBox[proto] = gfwVariant(func(p *gfw.Params) {
			protoName := p.Protocol
			*p = httpParams
			p.Protocol = protoName // keep the DPI matcher; share the stack
		}, s5, proto, trials, 1200+off)
	}
	return multiBox, singleBox
}

// StrategyRuleDependence maps each China strategy to the resync rule that
// powers it, by knocking rules out one at a time (HTTP unless noted).
// The returned matrix is strategy -> rule-knockout -> success rate.
func StrategyRuleDependence(trials int) map[int]map[string]float64 {
	knockouts := map[string]func(*gfw.Params){
		"full":     func(*gfw.Params) {},
		"no-rule1": func(p *gfw.Params) { p.PLoad = 0 },
		"no-rule2": func(p *gfw.Params) { p.PRst = 0 },
		"no-rule3": func(p *gfw.Params) { p.PCorruptAck = 0; p.PLoadSA = 0 },
	}
	order := []string{"full", "no-rule1", "no-rule2", "no-rule3"}
	protoFor := map[int]string{1: "http", 2: "http", 3: "ftp", 5: "ftp", 6: "http", 7: "http"}
	out := make(map[int]map[string]float64)
	seed := int64(2000)
	for _, num := range []int{1, 2, 3, 5, 6, 7} {
		s, _ := byNumber(num)
		row := make(map[string]float64)
		for _, name := range order {
			row[name] = gfwVariant(knockouts[name], s, protoFor[num], trials, seed)
			seed += 10000
		}
		out[num] = row
	}
	return out
}

func printAblations(w io.Writer, trials int) {
	header(w, "Model ablations: every DESIGN.md mechanism is load-bearing")
	for _, a := range Ablations(sample(trials, 2)) {
		kind := "censor bug"
		if !a.AidsEvasion {
			kind = "censor capability"
		}
		fmt.Fprintf(w, "%-42s (S%d/%s, %s): with %3.0f%%  without %3.0f%%\n    %s\n",
			a.Name, a.Strategy, a.Protocol, kind,
			100*a.WithMechanism, 100*a.WithoutMechanism, a.Explanation)
	}
	multi, single := SingleBoxAblation(sample(trials, 2))
	fmt.Fprintln(w, "\nSingle-box counterfactual (Strategy 5 per protocol):")
	for _, p := range eval.CensoredProtocols(eval.CountryChina) {
		fmt.Fprintf(w, "  %-6s multi-box %3.0f%%   single shared box %3.0f%%\n",
			p, 100*multi[p], 100*single[p])
	}
	fmt.Fprintln(w, "\nResync-rule knockouts (success per strategy):")
	dep := StrategyRuleDependence(sample(trials, 2))
	fmt.Fprintf(w, "  %-10s %8s %9s %9s %9s\n", "strategy", "full", "no-rule1", "no-rule2", "no-rule3")
	for _, n := range []int{1, 2, 3, 5, 6, 7} {
		r := dep[n]
		fmt.Fprintf(w, "  S%-9d %7.0f%% %8.0f%% %8.0f%% %8.0f%%\n",
			n, 100*r["full"], 100*r["no-rule1"], 100*r["no-rule2"], 100*r["no-rule3"])
	}
}
