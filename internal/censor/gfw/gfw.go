package gfw

import (
	"math/rand"
	"time"

	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// GFW is the composite Great Firewall: five per-protocol boxes colocated at
// one hop (§6, Figure 3b). Every box sees every packet — the GFW cannot
// know the application protocol during the handshake, so all processing
// engines track all flows — but only the box whose protocol matcher fires
// ever censors, and no box fails closed.
type GFW struct {
	// Boxes run on every packet in order. A GFW holds at most five, one
	// per protocol of ChinaParams.
	Boxes []*Box

	flows censor.FlowTable[entry]
	// inj is Process's scratch: every box appends its injections here,
	// and the verdict borrows them until the next call.
	inj censor.Injections
}

// entry is one tracked flow: a TCB slot per box, and a bit per box whose
// slot is live. The flow leaves the table when its last box retires it.
type entry struct {
	live uint8
	tcbs [len(chinaParams)]tcb
}

// New builds the GFW with the calibrated China parameters. All boxes share
// one RNG stream so a trial is reproducible from a single seed.
func New(bl censor.Blocklist, rng *rand.Rand) *GFW {
	g := &GFW{Boxes: make([]*Box, 0, len(chinaParams))}
	for _, p := range ChinaParams() {
		g.Boxes = append(g.Boxes, NewBox(p, bl, rng))
	}
	return g
}

// Reset returns the GFW to the state New left it in on rng, keeping its
// tables' capacity: every box back at its calibration with no events
// counted and no residual window open, and no flow tracked.
func (g *GFW) Reset(rng *rand.Rand) {
	for _, b := range g.Boxes {
		b.reset(rng)
	}
	g.flows.Reset()
}

// Name implements netsim.Middlebox.
func (g *GFW) Name() string { return "GFW" }

// Process implements netsim.Middlebox: one flow-table lookup, then every
// box's state machine over its own TCB slot, in box order, each appending
// what it injects to the GFW's scratch, which the verdict borrows until the
// next call. The GFW is on-path: it can inject but never drop.
func (g *GFW) Process(pkt *packet.Packet, _ netsim.Direction, now time.Duration) netsim.Verdict {
	g.inj.Reset()
	key := pkt.Flow().Canonical()
	syn := pkt.TCP.Flags == packet.FlagSYN
	e := g.flows.Get(key)
	if e == nil {
		// Only a SYN creates state. Everything on an unknown flow is
		// ignored (the GFW tracks connections; it does not censor
		// stateless traffic, unlike India/Iran — §5.2).
		if !syn {
			return netsim.Verdict{}
		}
		var evicted int
		e, evicted = g.flows.Add(key)
		mEvicted.Add(uint64(evicted))
		e.live = 0
	}
	var notes string
	for i, b := range g.Boxes {
		bit := uint8(1) << i
		t := &e.tcbs[i]
		if e.live&bit == 0 {
			if syn {
				b.track(t, pkt)
				e.live |= bit
			}
			continue
		}
		note := b.step(t, pkt, now, &g.inj)
		if t.torn {
			// The flow is dealt with (censored, torn down, or failed
			// open): the box retires its TCB.
			e.live &^= bit
		}
		if notes == "" {
			notes = note
		} else if note != "" {
			notes += "; " + note // two boxes censored one packet
		}
	}
	if e.live == 0 {
		g.flows.Delete(key)
	}
	return g.inj.Verdict(false, notes)
}

// CensoredCount returns the number of censorship events across all boxes
// (eval harness interface).
func (g *GFW) CensoredCount() int {
	n := 0
	for _, b := range g.Boxes {
		n += b.Censored
	}
	return n
}

// ExportResidual implements censor.ResidualCarrier by fanning out to every
// box; only boxes whose parameters carry residual censorship (HTTP) have
// windows to report.
func (g *GFW) ExportResidual(now time.Duration, emit func(key string, remaining time.Duration)) {
	for _, b := range g.Boxes {
		if b.P.Residual > 0 {
			b.ExportResidual(now, emit)
		}
	}
}

// SeedResidual implements censor.ResidualCarrier; boxes without residual
// censorship ignore the seed.
func (g *GFW) SeedResidual(key string, expiry time.Duration) {
	for _, b := range g.Boxes {
		b.SeedResidual(key, expiry)
	}
}
