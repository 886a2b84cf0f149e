package paper

import (
	"io"

	"geneva/internal/eval"
	"geneva/internal/packet"
)

// --- §5.2 port sensitivity (E15) and statelessness (E17) ---

// PortSensitivity reports, per country, whether hosting the HTTP server on
// a non-default port (8080) defeats censorship with no strategy at all.
// The paper: yes for India, Iran, and Kazakhstan; no for China.
func PortSensitivity() map[string]bool {
	out := make(map[string]bool)
	for _, country := range eval.CensoredCountries() {
		cfg := eval.Trial(country, sweepProtocol(country), nil, 140)
		cfg.Session.Port = 8080
		// "Defeats censorship" = the forbidden request goes through.
		rate := eval.Rate(cfg, 20)
		out[country] = rate > 0.9
	}
	return out
}

func printPorts(w io.Writer, _ int) {
	header(w, "§5.2: default-port sensitivity")
	printBoolMap(w, PortSensitivity(), "non-default port defeats censorship")
}

// Statelessness reproduces E17: a forbidden request fired with no prior
// handshake still triggers India's and Iran's censors (they track no
// state), but not China's (the GFW requires a TCB from a SYN).
func Statelessness() map[string]bool {
	out := make(map[string]bool)
	for _, country := range eval.CensoredCountries() {
		cfg := eval.Trial(country, sweepProtocol(country), nil, 150)
		rig := eval.NewRig(cfg)
		// A bare forbidden trigger on the censor's sweep protocol — the
		// session's opening request — with no handshake.
		pkt := packet.Get(eval.ClientAddr, eval.ServerAddr, 45000, cfg.Session.Port)
		pkt.TCP.Flags = packet.FlagPSH | packet.FlagACK
		pkt.TCP.Seq = 1000
		pkt.TCP.Payload = append(pkt.TCP.Payload, cfg.Session.Client().SendOnEstablish...)
		rig.Net.Send(rig.Client, pkt)
		rig.Net.Run(0)
		out[country] = rig.CensorEvents() > 0
	}
	return out
}

func printStateless(w io.Writer, _ int) {
	header(w, "§5.2: state tracking")
	printBoolMap(w, Statelessness(), "censors with no handshake at all")
}
