// Package india models India's web censorship as an ISP *family* rather
// than a single middlebox. Yadav et al. ("Where The Light Gets In",
// IMC 2018 — see PAPERS.md) show that Indian censorship is implemented
// independently by each ISP, with mechanically different filtering and
// response behaviour; the paper's §5.2 Airtel measurements cover just one
// sibling of that family.
//
// All modeled ISPs share the same skeleton — a completely stateless
// on-path/in-path DPI engine that matches a single packet, never
// reassembles (so inducing client segmentation, Strategy 8, defeats every
// sibling), and censors only on the protocol's default port — and differ
// only in their calibration: which triggers they watch (HTTP Host, TLS SNI) and what
// they do on a match:
//
//   - Airtel (§5.2, Yadav et al.): HTTP only; injects an HTTP 200 block
//     page on a FIN+PSH+ACK plus a follow-up RST. Purely on-path: it
//     cannot drop.
//   - Jio (Yadav et al.): SNI-triggered blackholing on port 443 — the
//     offending ClientHello and every later client packet of the flow are
//     silently dropped for a window, so the client sees only timeouts.
//   - Vodafone (Yadav et al.): HTTP only; injects an HTTP 302 redirect to
//     the ISP's notice page instead of a block page, with no RST — the
//     real response is simply outrun.
//
// Every sibling is a calibration of censor.DPI, the repo's one
// stateless-DPI model; a new sibling is a censor.DPIParams literal away,
// and nothing else in the harness needs to know.
package india

import (
	"math/rand"
	"time"

	"geneva/internal/censor"
)

// Each sibling's counters, censor.india.<isp>.*, registered at init.
var (
	airtelMetrics   = ispMetrics("airtel")
	jioMetrics      = ispMetrics("jio")
	vodafoneMetrics = ispMetrics("vodafone")
)

func ispMetrics(isp string) censor.DPIMetrics {
	return censor.NewDPIMetrics("censor.india."+isp+".", "injected_pages",
		"injected_redirects", "injected_rsts", "blackholed_drops")
}

// Airtel returns the §5.2 Airtel calibration: stateless HTTP-only DPI
// that injects a DoT block page and a follow-up RST.
func Airtel() censor.DPIParams {
	return censor.DPIParams{
		Name:      "India-airtel",
		HTTP:      censor.ActionBlockPage,
		BlockBody: "<html><body>This website has been blocked as per instructions of DoT.</body></html>",
		Metrics:   airtelMetrics,
	}
}

// Jio returns the Jio calibration: SNI-triggered blackholing on port 443
// (Yadav et al. observed censorship via silent packet drops, leaving the
// client to time out).
func Jio() censor.DPIParams {
	return censor.DPIParams{
		Name:            "India-jio",
		SNI:             censor.ActionBlackhole,
		BlackholeWindow: time.Minute,
		Metrics:         jioMetrics,
	}
}

// Vodafone returns the Vodafone calibration: HTTP-only DPI injecting a 302
// redirect to the ISP notice page.
func Vodafone() censor.DPIParams {
	return censor.DPIParams{
		Name:             "India-vodafone",
		HTTP:             censor.ActionRedirect,
		RedirectLocation: "http://www.vodafone.in/dot-compliance",
		Metrics:          vodafoneMetrics,
	}
}

// ISPs returns the modeled siblings in a fixed order.
func ISPs() []censor.DPIParams { return []censor.DPIParams{Airtel(), Jio(), Vodafone()} }

// New builds the ISP middlebox for params. The rng is unused (every Indian
// ISP model is deterministic) but accepted for interface symmetry with the
// other censors.
func New(p censor.DPIParams, bl censor.Blocklist, _ *rand.Rand) *censor.DPI {
	return censor.NewDPI(p, bl)
}

// NewAirtel builds the Airtel sibling (the original §5.2 model).
func NewAirtel(bl censor.Blocklist, rng *rand.Rand) *censor.DPI { return New(Airtel(), bl, rng) }
