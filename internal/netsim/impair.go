package netsim

import (
	"math/rand"
	"time"
)

// Profile describes the impairment of one direction of the path. All
// probabilities are per-packet in [0, 1]; the zero value is a perfect link.
type Profile struct {
	// Loss is the probability a packet is silently dropped in transit.
	Loss float64
	// Duplicate is the probability a packet is delivered twice (the copy
	// takes its own independently jittered path).
	Duplicate float64
	// Reorder is the probability a packet is held back long enough for a
	// later packet in the same direction to overtake it.
	Reorder float64
	// Jitter adds a uniform random extra latency in [0, Jitter] to every
	// packet. Values below the inter-packet spacing delay without
	// reordering; larger values reorder too.
	Jitter time.Duration
}

func (p Profile) enabled() bool {
	return p.Loss > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.Jitter > 0
}

// Impairments bundles the per-direction impairment profiles of the path.
// The zero value disables the layer entirely: no randomness is consumed and
// delivery is byte-identical to a network that never heard of impairments.
type Impairments struct {
	ToServer Profile
	ToClient Profile
}

// Symmetric applies the same profile to both directions.
func Symmetric(p Profile) Impairments { return Impairments{ToServer: p, ToClient: p} }

// Enabled reports whether any impairment is active in either direction.
func (im Impairments) Enabled() bool { return im.ToServer.enabled() || im.ToClient.enabled() }

// SetImpairments installs the impairment layer. The rng is the sole source
// of randomness — two networks configured with equal profiles and
// equally-seeded rngs impair identically — and must be non-nil when im is
// enabled.
func (n *Network) SetImpairments(im Impairments, rng *rand.Rand) {
	n.impair = [2]Profile{ToServer: im.ToServer, ToClient: im.ToClient}
	n.impaired = [2]bool{ToServer: im.ToServer.enabled(), ToClient: im.ToClient.enabled()}
	n.impairRNG = rng
}

// impairExtra draws the extra latency for one packet copy: a reordering
// hold-back (long enough that the next packet overtakes) plus jitter. The
// draw order is fixed — reorder, then jitter — so a given rng stream always
// maps to the same impairment schedule.
func (n *Network) impairExtra(p *Profile) time.Duration {
	var extra time.Duration
	if p.Reorder > 0 && n.impairRNG.Float64() < p.Reorder {
		mReordered.Inc()
		extra += n.LinkDelay + time.Duration(n.impairRNG.Int63n(int64(n.LinkDelay)+1))
	}
	if p.Jitter > 0 {
		extra += time.Duration(n.impairRNG.Int63n(int64(p.Jitter) + 1))
	}
	return extra
}
