package gfw

import (
	"bytes"
	"math/rand"
	"net/netip"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// resyncTarget says which future packet a box in the resynchronization
// state will re-sync its TCB on.
type resyncTarget int

const (
	resyncNone resyncTarget = iota
	// resyncNextClientPkt: the very next packet from the client
	// (triggers 2 and 3).
	resyncNextClientPkt
	// resyncServerSAOrClientAck: the next SYN+ACK from the server or the
	// next ACK-flagged packet from the client, whichever comes first
	// (trigger 1).
	resyncServerSAOrClientAck
)

// resyncReason records why the box most recently entered/consumed a resync,
// which changes its later behaviour (§5.1: "depending on the reason the GFW
// enters the resynchronization state, it behaves differently").
type resyncReason int

const (
	reasonNone resyncReason = iota
	reasonServerLoad
	reasonServerRst
	reasonCorruptAck
	reasonLoadSA
)

// tcb is one box's per-flow transmission control block.
type tcb struct {
	clientAddr netip.Addr
	clientPort uint16
	serverAddr netip.Addr
	serverPort uint16

	clientISS     uint32
	expClient     uint32 // next expected client sequence number
	expServer     uint32 // next expected server sequence number
	haveServerISN bool

	stream      []byte // reassembled client stream (if the box reassembles)
	reassembles bool

	target       resyncTarget
	reason       resyncReason
	sawSrvRst    bool
	sawClientAck bool // the client has sent an ACK-flagged packet
	resynced     bool // a resync actually rewrote expClient
	torn         bool
	censored     bool
}

// fromClient reports whether pkt was sent by the host the box decided is
// the client (the SYN sender; §3).
func (t *tcb) fromClient(p *packet.Packet) bool {
	return p.IP.Src == t.clientAddr && p.TCP.SrcPort == t.clientPort
}

// maxFlows bounds a box's TCB table. Real censors evict aggressively to
// survive at national scale (§2.1: "maintaining a TCB on a per-flow basis
// is challenging at scale, and thus on-path censors naturally take several
// shortcuts").
const maxFlows = 65536

// Box is one of the GFW's per-protocol censorship engines.
type Box struct {
	P     Params
	Block censor.Blocklist

	rng *rand.Rand
	m   *boxMetrics
	// The first tracked flow lives inline: the standard rig is one
	// connection per trial fanned out to five boxes, so keeping flow #1
	// out of the map means most trials never allocate per-flow state at
	// all. Additional concurrent flows spill into the flows map.
	flow0 packet.Flow
	tcb0  tcb
	have0 bool
	flows map[packet.Flow]*tcb
	// free recycles TCBs of dealt-with flows (see dropFlow). At fleet
	// scale the table would otherwise accumulate one dead entry per
	// connection until the maxFlows sweep; recycling keeps the map sized
	// to the *live* flow population and reuses each TCB's reassembly
	// buffer across flows.
	free    []*tcb
	lastNow time.Duration
	// residual holds the poisoned server windows (boxes with Residual only).
	residual censor.ResidualTable

	// Censored counts censorship events (for experiments).
	Censored int
	// Evicted counts TCBs dropped by the scale bound.
	Evicted int
}

// NewBox builds a box with its own RNG stream. The flow and residual
// tables are lazy: single-connection trials use the inline TCB slot, and
// only the box whose Params carry residual censorship (HTTP) ever writes
// the residual table, so the common trial allocates neither.
func NewBox(p Params, bl censor.Blocklist, rng *rand.Rand) *Box {
	return &Box{
		P:     p,
		Block: bl,
		rng:   rng,
		m:     metricsFor(p.Protocol),
	}
}

// lookup finds the TCB for a canonical flow key, or nil.
func (b *Box) lookup(key packet.Flow) *tcb {
	if b.have0 && key == b.flow0 {
		return &b.tcb0
	}
	return b.flows[key]
}

// addFlow claims a zeroed TCB slot for a new flow: the inline slot first,
// then a recycled TCB, then a fresh allocation into the spill map.
func (b *Box) addFlow(key packet.Flow) *tcb {
	if !b.have0 {
		b.have0 = true
		b.flow0 = key
		resetTCB(&b.tcb0)
		return &b.tcb0
	}
	if b.flows == nil {
		b.flows = make(map[packet.Flow]*tcb)
	}
	var t *tcb
	if n := len(b.free); n > 0 {
		t = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		t = &tcb{}
	}
	b.flows[key] = t
	return t
}

// dropFlow retires a dealt-with flow's TCB immediately instead of leaving
// a tombstone for the maxFlows sweep. Semantically invisible: a torn TCB
// ignores every packet, and an absent TCB ignores every packet except a
// client SYN. Endpoints under long-horizon reconnect churn DO reuse
// 4-tuples (the ephemeral-port counter wraps), but both TCB states handle
// the reused tuple's SYN the same way: an absent TCB tracks it fresh, and a
// present one re-tracks via the stale-TCB resync in processKeyed.
func (b *Box) dropFlow(key packet.Flow, t *tcb) {
	if t == &b.tcb0 {
		b.have0 = false
		return
	}
	delete(b.flows, key)
	resetTCB(t)
	b.free = append(b.free, t)
}

// resetTCB zeroes a TCB while keeping its reassembly buffer's capacity for
// the next flow.
func resetTCB(t *tcb) {
	stream := t.stream[:0]
	*t = tcb{}
	t.stream = stream
}

// flowCount is the number of tracked flows across the inline slot and the
// spill map.
func (b *Box) flowCount() int {
	n := len(b.flows)
	if b.have0 {
		n++
	}
	return n
}

// Name implements netsim.Middlebox.
func (b *Box) Name() string { return "GFW-" + b.P.Protocol }

// chance samples a Bernoulli with probability p.
func (b *Box) chance(p float64) bool { return b.rng.Float64() < p }

// Process implements netsim.Middlebox. Note it never looks at checksums:
// insertion packets with corrupted checksums are processed like any other.
func (b *Box) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	return b.processKeyed(pkt.Flow().Canonical(), pkt, dir, now)
}

// processKeyed is Process with the canonical flow key precomputed: the
// composite GFW fans every packet to five boxes, and hashing the 4-tuple
// once instead of five times is a measurable win at fleet scale.
func (b *Box) processKeyed(key packet.Flow, pkt *packet.Packet, _ netsim.Direction, now time.Duration) netsim.Verdict {
	b.lastNow = now
	t := b.lookup(key)

	// TCB creation: only a client SYN creates state. Everything on an
	// unknown flow is ignored (the GFW tracks connections; it does not
	// censor stateless traffic, unlike India/Iran — §5.2).
	if t == nil {
		if pkt.TCP.Flags == packet.FlagSYN {
			if b.flowCount() >= maxFlows {
				b.evict()
			}
			t = b.addFlow(key)
			t.clientAddr, t.clientPort = pkt.IP.Src, pkt.TCP.SrcPort
			t.serverAddr, t.serverPort = pkt.IP.Dst, pkt.TCP.DstPort
			t.clientISS = pkt.TCP.Seq
			t.expClient = pkt.TCP.Seq + 1
			t.reassembles = !b.chance(b.P.PNoReassembly)
		}
		return netsim.Verdict{}
	}

	// Stale-TCB resync: a fresh client SYN with a *new* ISN on a tracked
	// 4-tuple means the endpoint reused the port for a new connection (an
	// endpoint that churns through >33k reconnects wraps its ephemeral-port
	// counter). The old TCB's sequence expectations belong to the previous
	// tenant; carrying them over would leave the box desynchronized for the
	// entire new connection — every request invisible to DPI. The box
	// re-tracks from the SYN. A retransmitted SYN (same ISN) is not a new
	// connection and leaves the TCB alone.
	if pkt.TCP.Flags == packet.FlagSYN && t.fromClient(pkt) && pkt.TCP.Seq != t.clientISS {
		b.m.tupleReuse.Inc()
		resetTCB(t)
		t.clientAddr, t.clientPort = pkt.IP.Src, pkt.TCP.SrcPort
		t.serverAddr, t.serverPort = pkt.IP.Dst, pkt.TCP.DstPort
		t.clientISS = pkt.TCP.Seq
		t.expClient = pkt.TCP.Seq + 1
		t.reassembles = !b.chance(b.P.PNoReassembly)
		return netsim.Verdict{}
	}

	v := b.dispatch(t, pkt, now)
	if t.torn {
		// The flow is dealt with (censored, torn down, or failed open):
		// retire its TCB now rather than leaving a tombstone around.
		b.dropFlow(key, t)
	}
	return v
}

// dispatch inspects one packet of a tracked, live flow.
func (b *Box) dispatch(t *tcb, pkt *packet.Packet, now time.Duration) netsim.Verdict {
	// Residual censorship (HTTP box): a poisoned server IP:port elicits
	// tear-down right after any new three-way handshake (§4.2). The expiry
	// is inclusive: a connection at exactly poison-time + 90s is still
	// censored, and the first packet after that boundary passes.
	if b.P.Residual > 0 && t.fromClient(pkt) && pkt.TCP.Flags&packet.FlagACK != 0 &&
		b.residual.Live(netip.AddrPortFrom(t.serverAddr, t.serverPort), now) {
		b.m.residual.Inc()
		return b.censorVerdict(t, "residual censorship")
	}

	if t.fromClient(pkt) {
		return b.processClient(t, pkt)
	}
	return b.processServer(t, pkt)
}

// ExportResidual implements censor.ResidualCarrier over the box's residual
// table.
func (b *Box) ExportResidual(now time.Duration, emit func(key string, remaining time.Duration)) {
	b.residual.ExportResidual(now, emit)
}

// SeedResidual implements censor.ResidualCarrier (a max-merge into the
// residual table). Boxes without residual censorship ignore the seed.
func (b *Box) SeedResidual(key string, expiry time.Duration) {
	if b.P.Residual > 0 {
		b.residual.SeedResidual(key, expiry)
	}
}

// processServer applies the resynchronization triggers, which all key off
// server behaviour during/around the handshake.
func (b *Box) processServer(t *tcb, pkt *packet.Packet) netsim.Verdict {
	tc := &pkt.TCP
	isSA := tc.Flags == packet.FlagSYN|packet.FlagACK
	hasRST := tc.Flags&packet.FlagRST != 0
	hasLoad := len(tc.Payload) > 0

	switch {
	case hasRST:
		// Trigger 2. A server RST never tears the TCB down (§3): at
		// most it desynchronizes the box.
		t.sawSrvRst = true
		if b.chance(b.P.PRst) {
			b.m.resyncRst.Inc()
			t.target = resyncNextClientPkt
			t.reason = reasonServerRst
		}
	case isSA:
		// A server SYN+ACK in trigger-1 resync mode is itself a resync
		// target: the box adopts its numbers — including a corrupted
		// ack — as ground truth (Strategy 6).
		if t.target == resyncServerSAOrClientAck {
			t.expServer = tc.Seq + 1
			t.haveServerISN = true
			t.expClient = tc.Ack
			t.resynced = true
			t.target = resyncNone
			return netsim.Verdict{}
		}
		corruptAck := tc.Ack != t.clientISS+1
		switch {
		case corruptAck && b.chance(b.P.PCorruptAck):
			// Trigger 3 (FTP only in practice).
			b.m.resyncCorrupt.Inc()
			t.target = resyncNextClientPkt
			t.reason = reasonCorruptAck
		case hasLoad && b.chance(b.P.PLoadSA):
			// Payload-bearing SYN+ACK (observed for FTP, Strategy 5).
			b.m.resyncLoadSA.Inc()
			t.target = resyncNextClientPkt
			t.reason = reasonLoadSA
		}
		if !corruptAck {
			// Adopt the SYN+ACK's ISN — but once locked on, a duplicate
			// SYN+ACK claiming a wildly different sequence number (a
			// would-be desynchronization of the box's server-side
			// numbers) is ignored, like any implausible jump.
			if !t.haveServerISN || tc.Seq+1-t.expServer < 1<<20 {
				t.expServer = tc.Seq + 1
			}
			t.haveServerISN = true
			// Window sanity: a SYN+ACK advertising a window too small
			// to carry a single command, with no window scaling, makes
			// flow-control segmentation inevitable. A box that cannot
			// reassemble gives up on such a flow — failing open (§6).
			// This is why TCP Window Reduction defeats SMTP censorship
			// 100% of the time and FTP ~47% (Table 2, row 8).
			if !t.reassembles &&
				(b.P.Protocol == "ftp" || b.P.Protocol == "smtp") &&
				tc.Window < 64 && tc.Option(packet.OptWScale) == nil {
				b.m.failOpen.Inc()
				t.torn = true
			}
		}
		// Payload accounting bug (FTP box only — §6: each box has its
		// own bugs): the payload is counted into the server sequence
		// expectation even though clients ignore it, which blocks the
		// clean-ACK re-acquisition above (Strategy 5 vs Strategy 4).
		if hasLoad && !corruptAck && b.P.PayloadAccounting {
			t.expServer += uint32(len(tc.Payload))
		}
	default:
		// A bare SYN from the server (a strategy simulating simultaneous
		// open) still teaches the box the server's ISN — the GFW tracks
		// both directions to fabricate acceptable tear-down packets.
		if tc.Flags&packet.FlagSYN != 0 && !t.haveServerISN {
			t.expServer = tc.Seq + 1
			t.haveServerISN = true
		}
		// Trigger 1: a payload on a non-SYN+ACK packet from the server
		// *during the handshake* (before the box has seen any
		// ACK-flagged packet from the client). Ordinary server data —
		// an FTP or SMTP greeting — arrives after the client's
		// handshake ACK and does not re-enter the resync state.
		if hasLoad && !t.sawClientAck && b.chance(b.P.PLoad) {
			b.m.resyncLoad.Inc()
			t.target = resyncServerSAOrClientAck
			t.reason = reasonServerLoad
		}
		if t.haveServerISN && hasLoad {
			end := tc.Seq + uint32(len(tc.Payload))
			switch {
			case tc.Seq == t.expServer:
				t.expServer = end
			case t.sawClientAck && end-t.expServer < 1<<20:
				// Post-handshake the box tracks the server's actual
				// stream, recovering from any handshake-time payload
				// accounting (it overhears the genuine packets). The
				// high-water mark only moves forward, and only within a
				// plausible flight (1 MiB): retransmissions and
				// out-of-order duplicates never regress it, and
				// corrupt-sequence garbage never poisons it.
				t.expServer = end
			}
		}
	}
	return netsim.Verdict{}
}

func (b *Box) processClient(t *tcb, pkt *packet.Packet) netsim.Verdict {
	tc := &pkt.TCP
	hasACK := tc.Flags&packet.FlagACK != 0
	hasSYN := tc.Flags&packet.FlagSYN != 0
	hasRST := tc.Flags&packet.FlagRST != 0
	hasFIN := tc.Flags&packet.FlagFIN != 0
	if hasACK {
		defer func() { t.sawClientAck = true }()
	}

	// Resynchronization consumption.
	consumed := false
	switch t.target {
	case resyncNextClientPkt:
		consumed = true
	case resyncServerSAOrClientAck:
		consumed = hasACK
	}
	if consumed {
		// The box adopts this packet's sequence number as the client's
		// next expected byte. For a handshake-completing ACK that is
		// correct (seq == ISS+1 == first data byte). For a
		// simultaneous-open SYN+ACK it is off by one (seq == ISS; data
		// starts at ISS+1) — the paper's central GFW bug. For an
		// induced RST it is whatever garbage the ack corruption chose.
		t.expClient = tc.Seq
		t.target = resyncNone
		t.resynced = true
		if hasRST || hasFIN {
			// Re-syncing onto a tear-down packet does not tear the TCB
			// down — the §5.1 Strategy 7 follow-up experiment shows the
			// GFW censors a request whose seq is adjusted to match.
			return netsim.Verdict{}
		}
		// Fall through: a data-bearing resync target is still inspected.
	}

	// Clean-ACK re-acquisition: a box desynchronized via trigger 3 that
	// then observes a plausible *handshake-completing* ACK (the client's
	// first ACK-flagged packet, with the correct server ack and no
	// payload or other flags) re-acquires the flow. Blocked when the ack
	// number disagrees with the (payload-inflated, FTP-box-only) server
	// expectation or when a server RST was seen.
	reacquirable := t.reason == reasonCorruptAck ||
		(b.P.ReacquireAfterRst && t.reason == reasonServerRst)
	if t.resynced && reacquirable && (!t.sawSrvRst || b.P.ReacquireAfterRst) &&
		!t.sawClientAck &&
		hasACK && !hasSYN && !hasRST && !hasFIN && len(tc.Payload) == 0 &&
		t.haveServerISN && tc.Ack == t.expServer &&
		b.chance(b.P.PReacquire) {
		b.m.reacquired.Inc()
		t.expClient = tc.Seq
		t.resynced = false
	}

	// Tear-down: honoured only from the client, and only with a valid
	// sequence number (§2.1, §3).
	if (hasRST || hasFIN) && tc.Seq == t.expClient {
		t.torn = true
		return netsim.Verdict{}
	}
	if hasRST {
		return netsim.Verdict{} // invalid RST: ignored
	}

	// DPI over client data.
	if len(tc.Payload) > 0 && !hasSYN {
		if tc.Seq != t.expClient {
			return netsim.Verdict{} // desynchronized: invisible to DPI
		}
		var scan []byte
		// usePkt: the bytes under inspection are exactly this packet's
		// payload, so the packet's memoized app view (shared across all
		// five boxes and any other censor on the path) can answer instead
		// of re-parsing. True for a non-reassembling box, and for a
		// reassembling one whose stream began with this segment.
		usePkt := true
		if t.reassembles {
			usePkt = len(t.stream) == 0
			t.stream = append(t.stream, tc.Payload...)
			scan = t.stream
		} else {
			// A non-reassembling box inspects each segment alone. For
			// the line-based protocols (FTP, SMTP) a segment holding a
			// *partial* command line is unparseable, and the box gives
			// up on the flow entirely — failing open, never closed
			// (§6). This is what makes TCP Window Reduction 100%
			// effective against SMTP and ~47% against FTP (Table 2,
			// row 8): the split HELO/USER command poisons the flow for
			// the box.
			if (b.P.Protocol == "ftp" || b.P.Protocol == "smtp") &&
				!bytes.HasSuffix(tc.Payload, []byte("\r\n")) {
				b.m.failOpen.Inc()
				t.torn = true
				return netsim.Verdict{}
			}
			scan = tc.Payload
		}
		t.expClient += uint32(len(tc.Payload))
		if b.matches(pkt, scan, usePkt) && !b.chance(b.P.PMiss) {
			return b.censorVerdict(t, "forbidden "+b.P.Protocol+" request")
		}
	}
	return netsim.Verdict{}
}

// matches runs this box's protocol-specific DPI over the client stream.
// Anything unparseable fails open (§6). When usePkt is set, stream is
// exactly pkt's payload and the packet's memoized app view answers without
// re-parsing; a multi-segment reassembled stream is parsed directly.
func (b *Box) matches(pkt *packet.Packet, stream []byte, usePkt bool) bool {
	switch b.P.Protocol {
	case "dns":
		if usePkt {
			if name, ok := pkt.DNSQueryName(); ok {
				return b.Block.MatchDomain(name)
			}
		} else if name, ok := packet.ParseDNSQueryName(stream); ok {
			return b.Block.MatchDomain(name)
		}
	case "ftp":
		if f, ok := apps.FTPRetrTarget(stream); ok {
			return b.Block.MatchKeyword(f)
		}
	case "http":
		// The first request is checked exactly as before (memoized view on
		// the usePkt path); a keep-alive client that coalesces several
		// requests into one segment or stream then gets every follow-up
		// request scanned too. Before that scan existed the box censored
		// only the *first* request of a payload — a forbidden request
		// pipelined behind a benign one sailed through.
		if usePkt {
			if target, ok := pkt.HTTPRequestTarget(); ok && b.Block.MatchKeyword(target) {
				return true
			}
			if host, ok := pkt.HTTPHostHeader(); ok && b.Block.MatchDomain(host) {
				return true
			}
			if off := pkt.HTTPNextRequestOffset(); off > 0 {
				return packet.VisitHTTPRequests(pkt.TCP.Payload[off:], b.matchHTTPRequest)
			}
			return false
		}
		if target, ok := packet.ParseHTTPRequestTarget(stream); ok && b.Block.MatchKeyword(target) {
			return true
		}
		if host, ok := packet.ParseHTTPHostHeader(stream); ok && b.Block.MatchDomain(host) {
			return true
		}
		if off := packet.NextHTTPRequestOffset(stream); off > 0 {
			return packet.VisitHTTPRequests(stream[off:], b.matchHTTPRequest)
		}
	case "https":
		if usePkt {
			if sni, ok := pkt.TLSServerName(); ok {
				return b.Block.MatchDomain(sni)
			}
		} else if sni, ok := packet.ParseTLSServerName(stream); ok {
			return b.Block.MatchDomain(sni)
		}
	case "smtp":
		if rcpt, ok := apps.SMTPRcptTarget(stream); ok {
			return b.Block.MatchEmail(rcpt)
		}
	}
	return false
}

// matchHTTPRequest is the per-request predicate for the pipelined follow-up
// scan: the same keyword-on-target / domain-on-Host pair the first-request
// path applies.
func (b *Box) matchHTTPRequest(target, host string, hok bool) bool {
	return b.Block.MatchKeyword(target) || (hok && b.Block.MatchDomain(host))
}

// censorVerdict fabricates the GFW's tear-down: RST+ACK triples to the
// client and a RST to the server, numbered from the TCB so the endpoints
// accept them (§2.1).
func (b *Box) censorVerdict(t *tcb, note string) netsim.Verdict {
	b.Censored++
	b.m.censored.Inc()
	t.censored = true
	t.torn = true // the box considers the connection dealt with
	if b.P.Residual > 0 {
		// Opening the window sweeps expired ones, so a long evolve run
		// against many servers keeps the table at the poisoned set.
		srv := netip.AddrPortFrom(t.serverAddr, t.serverPort)
		swept := b.residual.Open(srv, b.lastNow, b.lastNow+b.P.Residual)
		b.m.residualSwept.Add(uint64(swept))
	}
	srvFlow := packet.Flow{
		SrcAddr: t.serverAddr, SrcPort: t.serverPort,
		DstAddr: t.clientAddr, DstPort: t.clientPort,
	}
	cliFlow := srvFlow.Reverse()
	v := netsim.Verdict{Note: note}
	for i := 0; i < 3; i++ {
		v.InjectToClient = append(v.InjectToClient,
			censor.InjectRST(srvFlow, cliFlow, t.expServer, t.expClient))
	}
	v.InjectToServer = append(v.InjectToServer,
		censor.InjectRST(cliFlow, srvFlow, t.expClient, t.expServer))
	return v
}

// evict trims the spill map of a full flow table to half its bound. Every
// tracked flow is live (dropFlow retires dealt-with flows eagerly), so the
// victims are arbitrary live flows — itself faithful to real on-path
// censors, whose shortcuts under load are one source of the paper's
// baseline miss rates.
func (b *Box) evict() {
	for k := range b.flows {
		if b.flowCount() < maxFlows/2 {
			return
		}
		delete(b.flows, k)
		b.Evicted++
		b.m.evicted.Inc()
	}
}
