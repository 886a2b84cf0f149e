package paper

import (
	"fmt"
	"io"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/packet"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// --- §7 client compatibility (E14) ---

// CompatCell is one (strategy, client OS) outcome on the §7 private network
// — no censor; the question is whether the strategy breaks the client.
type CompatCell struct {
	Strategy string
	OS       string
	Works    bool
}

// ClientCompatibility reproduces §7: every strategy against every client
// personality, over HTTP on a censor-free network, plus the three
// checksum-insertion variants that repair Strategies 5, 9 and 10 for
// Windows and macOS.
func ClientCompatibility() []CompatCell {
	var cells []CompatCell
	var all []strategies.Strategy
	all = append(all, strategies.All()...)
	for _, s := range strategies.All() {
		if v, ok := strategies.InsertionVariant(s); ok {
			all = append(all, v)
		}
	}
	for _, s := range all {
		for _, os := range tcpstack.AllPersonalities {
			cfg := eval.Trial(eval.CountryNone, "http", s.Parse(), int64(len(cells)))
			cfg.ClientOS = os
			cells = append(cells, CompatCell{
				Strategy: s.Name,
				OS:       os.Name,
				Works:    eval.Run(cfg).Success,
			})
		}
	}
	return cells
}

// FormatCompat renders the §7 matrix, one row per strategy.
func FormatCompat(cells []CompatCell) string {
	byStrategy := map[string][]CompatCell{}
	var order []string
	for _, c := range cells {
		if _, seen := byStrategy[c.Strategy]; !seen {
			order = append(order, c.Strategy)
		}
		byStrategy[c.Strategy] = append(byStrategy[c.Strategy], c)
	}
	var b strings.Builder
	b.WriteString("Client compatibility (§7): ✓ = connection works, ✗ = broken client\n\n")
	for _, name := range order {
		var fails []string
		for _, c := range byStrategy[name] {
			if !c.Works {
				fails = append(fails, c.OS)
			}
		}
		if len(fails) == 0 {
			fmt.Fprintf(&b, "%-48s all %d client OSes ✓\n", name, len(byStrategy[name]))
		} else {
			fmt.Fprintf(&b, "%-48s fails on: %s\n", name, strings.Join(fails, ", "))
		}
	}
	return b.String()
}

func printCompat(w io.Writer, _ int) {
	header(w, "Section 7: client compatibility matrix")
	fmt.Fprint(w, FormatCompat(ClientCompatibility()))
}

// --- §7 cellular-middlebox interference (E18) ---

// carrierHook models the in-network cellular middleboxes of §7's anecdote:
// not censors, but NATs/firewalls that silently drop server-originated SYN
// packets (a server never initiates a connection to a mobile client, so
// the middlebox treats such SYNs as garbage). The paper observed the
// simultaneous-open strategies failing on T-Mobile (Strategies 1 and 3)
// and AT&T (1, 2, and 3). dropLoaded also drops SYNs carrying a payload
// (the AT&T model; the T-Mobile model lets Strategy 2's payload-bearing SYN
// through). The SYNs are dropped as they leave the server: on a censor-free
// path nothing else sees a server SYN, so dropping it there instead of
// mid-path changes no outcome.
func carrierHook(dropLoaded bool) func(*eval.Rig) {
	return func(r *eval.Rig) {
		engine := r.Server.Outbound
		r.Server.Outbound = func(p *packet.Packet) []*packet.Packet {
			out := engine(p)
			kept := out[:0]
			for _, q := range out {
				if q.TCP.Flags == packet.FlagSYN && (dropLoaded || len(q.TCP.Payload) == 0) {
					continue
				}
				kept = append(kept, q)
			}
			return kept
		}
	}
}

// CarrierInterference reproduces the §7 network-compatibility anecdote:
// each strategy is run on a censor-free network behind a simulated
// cellular middlebox; the result maps carrier -> strategy number -> works.
// Wifi (no middlebox) is the control.
func CarrierInterference() map[string]map[int]bool {
	carriers := map[string]func(*eval.Rig){
		"wifi":    nil,
		"tmobile": carrierHook(false),
		"att":     carrierHook(true),
	}
	out := make(map[string]map[int]bool)
	for cname, hook := range carriers {
		res := make(map[int]bool)
		for _, s := range strategies.All() {
			cfg := eval.Trial(eval.CountryNone, "http", s.Parse(), 1)
			cfg.Hook = hook
			res[s.Number] = eval.Run(cfg).Success
		}
		out[cname] = res
	}
	return out
}

func printCarrier(w io.Writer, _ int) {
	header(w, "§7: cellular-middlebox interference (anecdote)")
	got := CarrierInterference()
	for _, c := range []string{"wifi", "tmobile", "att"} {
		var broken []int
		for n := 1; n <= 11; n++ {
			if !got[c][n] {
				broken = append(broken, n)
			}
		}
		if len(broken) == 0 {
			fmt.Fprintf(w, "  %-8s all strategies work\n", c)
		} else {
			fmt.Fprintf(w, "  %-8s broken strategies: %v\n", c, broken)
		}
	}
}
