package paper

import (
	"fmt"
	"io"
	"sort"

	"geneva/internal/eval"
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
		out[s.Name] = eval.Rate(eval.Trial(eval.CountryChina, "http", s.Parse(), int64(3000+i)), trials)
	}
	return out
}

// ClientSideTCBTeardownWorks shows the §3 contrast: the same TCB-teardown
// packet that fails from the server evades when the *client* sends it (a
// TTL-limited RST after the handshake, the seminal client-side strategy).
func ClientSideTCBTeardownWorks(trials int) float64 {
	cfg := eval.Trial(eval.CountryChina, "http", nil, 4000)
	cfg.Hook = func(r *eval.Rig) {
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
	}
	return eval.Rate(cfg, trials)
}

func printClientSide(w io.Writer, trials int) {
	header(w, "§3: client-side strategies do not generalize")
	rates := ClientSideGeneralization(sample(trials, 4))
	names := make([]string, 0, len(rates))
	for n := range rates {
		names = append(names, n)
	}
	sort.Strings(names)
	worst := 0.0
	for _, n := range names {
		if rates[n] > worst {
			worst = rates[n]
		}
	}
	fmt.Fprintf(w, "%d server-side analogs evaluated; best success rate: %.0f%% (baseline ~3%%)\n",
		len(rates), 100*worst)
	col := width(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-*s %4.0f%%\n", col, n, 100*rates[n])
	}
	fmt.Fprintf(w, "\nContrast — the same teardown run CLIENT-side evades at %.0f%%\n",
		100*ClientSideTCBTeardownWorks(sample(trials, 4)))
}
