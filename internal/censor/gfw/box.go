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
type resyncTarget uint8

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
type resyncReason uint8

const (
	reasonNone resyncReason = iota
	reasonServerLoad
	reasonServerRst
	reasonCorruptAck
	reasonLoadSA
)

// tcb is one box's per-flow transmission control block. Small fields sit
// together: the GFW's flow table holds five per entry.
type tcb struct {
	clientAddr netip.Addr
	serverAddr netip.Addr
	stream     []byte // reassembled client stream (if the box reassembles)
	clientPort uint16
	serverPort uint16

	clientISS     uint32
	expClient     uint32 // next expected client sequence number
	expServer     uint32 // next expected server sequence number
	haveServerISN bool
	reassembles   bool

	target       resyncTarget
	reason       resyncReason
	sawSrvRst    bool
	sawClientAck bool // the client has sent an ACK-flagged packet
	resynced     bool // a resync actually rewrote expClient
	torn         bool
}

// fromClient reports whether pkt was sent by the host the box decided is
// the client (the SYN sender; §3).
func (t *tcb) fromClient(p *packet.Packet) bool {
	return p.IP.Src == t.clientAddr && p.TCP.SrcPort == t.clientPort
}

// Box is one of the GFW's per-protocol censorship engines. Its TCBs live
// in the GFW's flow table, one slot per box in every entry.
type Box struct {
	P     Params
	Block censor.Blocklist

	// cal is the calibration NewBox was given, which reset restores P to.
	cal Params
	rng *rand.Rand
	m   *boxMetrics
	// residual holds the poisoned server windows (boxes with Residual only).
	residual censor.ResidualTable
	// name is the DNS box's scratch for the query name it reads.
	name []byte

	// Censored counts censorship events (for experiments).
	Censored int
}

// NewBox builds a box with its own RNG stream. The residual table is lazy:
// only the box whose Params carry residual censorship (HTTP) ever writes
// it.
func NewBox(p Params, bl censor.Blocklist, rng *rand.Rand) *Box {
	return &Box{
		P:     p,
		Block: bl,
		cal:   p,
		rng:   rng,
		m:     protoMetrics[p.Protocol],
	}
}

// reset returns the box to the state NewBox left it in on rng, keeping its
// residual table's capacity. P goes back to the calibration, because
// ShiftParams and the ablation hooks edit it in place.
func (b *Box) reset(rng *rand.Rand) {
	b.P, b.rng, b.Censored = b.cal, rng, 0
	b.residual.Reset()
}

// resetTCB zeroes a TCB while keeping its reassembly buffer's capacity for
// the next flow.
func resetTCB(t *tcb) {
	stream := t.stream[:0]
	*t = tcb{}
	t.stream = stream
}

// chance samples a Bernoulli with probability p.
func (b *Box) chance(p float64) bool { return b.rng.Float64() < p }

// track starts t on a SYN: its sender is the client (§3).
func (b *Box) track(t *tcb, pkt *packet.Packet) {
	resetTCB(t)
	t.clientAddr, t.clientPort = pkt.IP.Src, pkt.TCP.SrcPort
	t.serverAddr, t.serverPort = pkt.IP.Dst, pkt.TCP.DstPort
	t.clientISS = pkt.TCP.Seq
	t.expClient = pkt.TCP.Seq + 1
	t.reassembles = !b.chance(b.P.PNoReassembly)
}

// step runs the box over one packet of a flow it tracks, appending any
// tear-down it fabricates to inj and returning its note for the trace. It
// never looks at checksums: insertion packets with corrupted checksums are
// processed like any other. A flow the box is done with comes back with
// t.torn set.
func (b *Box) step(t *tcb, pkt *packet.Packet, now time.Duration, inj *censor.Injections) string {
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
		b.track(t, pkt)
		return ""
	}

	// Residual censorship (HTTP box): a poisoned server IP:port elicits
	// tear-down right after any new three-way handshake (§4.2). The expiry
	// is inclusive: a connection at exactly poison-time + 90s is still
	// censored, and the first packet after that boundary passes.
	if b.P.Residual > 0 && t.fromClient(pkt) && pkt.TCP.Flags&packet.FlagACK != 0 &&
		b.residual.Live(netip.AddrPortFrom(t.serverAddr, t.serverPort), now) {
		b.m.residual.Inc()
		b.tearDown(t, now, inj)
		return b.m.residualNote
	}

	if t.fromClient(pkt) {
		return b.processClient(t, pkt, now, inj)
	}
	b.processServer(t, pkt)
	return ""
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
// server behaviour during/around the handshake. A server packet never
// elicits censorship.
func (b *Box) processServer(t *tcb, pkt *packet.Packet) {
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
			return
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
}

// processClient runs the box over a client packet, returning the note of a
// tear-down it appends to inj.
func (b *Box) processClient(t *tcb, pkt *packet.Packet, now time.Duration, inj *censor.Injections) string {
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
			return ""
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
		return ""
	}
	if hasRST {
		return "" // invalid RST: ignored
	}

	// DPI over client data.
	if len(tc.Payload) > 0 && !hasSYN {
		if tc.Seq != t.expClient {
			return "" // desynchronized: invisible to DPI
		}
		var scan []byte
		if t.reassembles {
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
				return ""
			}
			scan = tc.Payload
		}
		t.expClient += uint32(len(tc.Payload))
		if b.matches(scan) && !b.chance(b.P.PMiss) {
			b.tearDown(t, now, inj)
			return b.m.forbiddenNote
		}
	}
	return ""
}

// matches runs this box's protocol-specific DPI over the client stream.
// Anything unparseable fails open (§6).
func (b *Box) matches(stream []byte) bool {
	switch b.P.Protocol {
	case "dns":
		var ok bool
		if b.name, ok = packet.ParseDNSQueryName(b.name[:0], stream); ok {
			return b.Block.MatchDomain(b.name)
		}
	case "ftp":
		if f, ok := apps.FTPRetrTarget(stream); ok {
			return b.Block.MatchKeyword(f)
		}
	case "http":
		// The first request's target and the first Host line anywhere in
		// the stream (a Host line with no request line before it still
		// matches); then every follow-up request a keep-alive client
		// pipelined behind the first.
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
		if sni, ok := packet.ParseTLSServerName(stream); ok {
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
func (b *Box) matchHTTPRequest(target, host []byte, hok bool) bool {
	return b.Block.MatchKeyword(target) || (hok && b.Block.MatchDomain(host))
}

// tearDown censors the flow, appending the GFW's tear-down to inj: RST+ACK
// triples to the client and a RST to the server, numbered from the TCB so
// the endpoints accept them (§2.1).
func (b *Box) tearDown(t *tcb, now time.Duration, inj *censor.Injections) {
	b.Censored++
	b.m.censored.Inc()
	t.torn = true // the box considers the connection dealt with
	if b.P.Residual > 0 {
		// Opening the window sweeps expired ones, so a long evolve run
		// against many servers keeps the table at the poisoned set.
		srv := netip.AddrPortFrom(t.serverAddr, t.serverPort)
		swept := b.residual.Open(srv, now, now+b.P.Residual)
		b.m.residualSwept.Add(uint64(swept))
	}
	srvFlow := packet.Flow{
		SrcAddr: t.serverAddr, SrcPort: t.serverPort,
		DstAddr: t.clientAddr, DstPort: t.clientPort,
	}
	cliFlow := srvFlow.Reverse()
	for i := 0; i < 3; i++ {
		inj.Add(netsim.ToClient, censor.InjectRST(srvFlow, t.expServer, t.expClient))
	}
	inj.Add(netsim.ToServer, censor.InjectRST(cliFlow, t.expClient, t.expServer))
}
