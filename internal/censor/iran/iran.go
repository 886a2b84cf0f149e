// Package iran models Iran's censorship middlebox (§5.2): stateless DPI
// over HTTP (port 80) and HTTPS SNI (port 443) that "blackholes" offenders.
//
// Properties from the paper:
//   - censors only on the protocols' default ports;
//   - no connection-state tracking: a forbidden request without a
//     handshake is censored;
//   - matches within a single packet (no reassembly): Strategy 8 wins;
//   - on a match, drops the offending packet and all future packets from
//     the client in that flow for one minute (no injection at all);
//   - DNS-over-TCP is no longer censored (contra Aryan et al.).
//
// It is a calibration of censor.DPI, the stateless-DPI model it shares
// with India's ISPs and Turkmenistan.
package iran

import (
	"math/rand"
	"time"

	"geneva/internal/censor"
)

var metrics = censor.NewDPIMetrics("censor.iran.", "blackholed_drops")

// Params returns Iran's calibration: HTTP Host and TLS SNI triggers both
// blackhole the client flow for one minute.
func Params() censor.DPIParams {
	return censor.DPIParams{
		Name:            "Iran",
		HTTP:            censor.ActionBlackhole,
		SNI:             censor.ActionBlackhole,
		BlackholeWindow: time.Minute,
		TerseNotes:      true,
		Metrics:         metrics,
	}
}

// New builds the censor (deterministic; rng accepted for symmetry).
func New(bl censor.Blocklist, _ *rand.Rand) *censor.DPI {
	return censor.NewDPI(Params(), bl)
}
