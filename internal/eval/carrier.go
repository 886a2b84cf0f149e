package eval

import (
	"geneva/internal/packet"
	"geneva/internal/strategies"
)

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
func carrierHook(dropLoaded bool) func(*Rig) {
	return func(r *Rig) {
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
	carriers := map[string]func(*Rig){
		"wifi":    nil,
		"tmobile": carrierHook(false),
		"att":     carrierHook(true),
	}
	out := make(map[string]map[int]bool)
	for cname, hook := range carriers {
		res := make(map[int]bool)
		for _, s := range strategies.All() {
			cfg := Trial(CountryNone, "http", s.Parse(), 1)
			cfg.Hook = hook
			res[s.Number] = Run(cfg).Success
		}
		out[cname] = res
	}
	return out
}
