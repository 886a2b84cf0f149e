// Package tmc models Turkmenistan's national censor (the TMC). Nourin et
// al. ("Measuring and Evading Turkmenistan's Internet Censorship", WWW
// 2023 — see PAPERS.md) document a censor that is unusual on two axes the
// other models in this repo never exercise:
//
//   - It is *bidirectional*: the DPI engines match triggers in both
//     directions and react to server-to-client traffic, not just client
//     requests. A forbidden trigger seen in either direction elicits
//     injection toward both endpoints.
//   - Its tear-down is *two-sided*: HTTP Host and TLS SNI matches inject
//     RST+ACK toward the client and the server simultaneously, and DNS
//     queries for forbidden names are answered with a forged response
//     carrying a bogus address, injected back toward whichever side sent
//     the query.
//
// Like India's ISPs the TMC is stateless single-packet DPI — it keeps no
// TCB, never reassembles (client segmentation defeats every engine), and
// matches only on the protocol's default port. Its one piece of
// cross-connection state is residual censorship: after an HTTP/HTTPS
// tear-down the server endpoint stays tainted for a window, and any new
// connection to it is torn down on the first ACK-bearing client packet.
// That state rides the fleet's residual ledger via censor.ResidualCarrier,
// in the same residual table the GFW's poisoned windows use.
//
// The TMC is a calibration of censor.DPI, the stateless-DPI model it
// shares with India's ISPs and Iran: bidirectional, with two-sided
// tear-down and forged-DNS actions.
package tmc

import (
	"math/rand"
	"time"

	"geneva/internal/censor"
)

// ResidualWindow is how long a server endpoint stays tainted after an
// HTTP/HTTPS tear-down. Nourin et al. measure multi-minute blocking of the
// server IP; one minute keeps the fleet's default inter-wave gap (120 s)
// outside the window so routed cells stay deterministic.
const ResidualWindow = time.Minute

var metrics = censor.NewDPIMetrics("censor.tmc.", "injected_rsts", "forged_dns", "residual_hits")

// Params returns the TMC's calibration. Forged DNS answers resolve
// forbidden names to the loopback address Nourin et al. observe.
func Params() censor.DPIParams {
	return censor.DPIParams{
		Name:          "TMC",
		DNS:           censor.ActionForgeDNS,
		HTTP:          censor.ActionTeardown,
		SNI:           censor.ActionTeardown,
		Bidirectional: true,
		Residual:      ResidualWindow,
		ForgedAddr:    [4]byte{127, 0, 0, 1},
		Metrics:       metrics,
	}
}

// New builds the TMC. The rng is unused (the model is deterministic) but
// accepted for constructor symmetry with the other censors.
func New(bl censor.Blocklist, _ *rand.Rand) censor.ResidualDPI {
	return censor.ResidualDPI{DPI: censor.NewDPI(Params(), bl)}
}
