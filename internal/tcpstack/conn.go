package tcpstack

import (
	"fmt"
	"time"

	"geneva/internal/packet"
)

// State is a TCP connection state (the RFC 793 subset the experiments
// exercise).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// App is the application attached to a connection. Implementations receive
// lifecycle callbacks and respond by calling Conn.Send / Conn.Close.
type App interface {
	// OnEstablished fires once, when the three-way handshake (or
	// simultaneous open) completes.
	OnEstablished(c *Conn)
	// OnData fires for each chunk of in-order stream data. The stack keeps
	// no copy: data is the segment's payload, valid only during the call.
	OnData(c *Conn, data []byte)
	// OnClose fires once when the connection ends. reset is true for an
	// abortive close (RST received).
	OnClose(c *Conn, reset bool)
}

// Conn is a single TCP connection state machine. It is driven entirely by
// handlePacket and the App's Send/Close calls; the owning Endpoint moves
// packets between it and the network.
type Conn struct {
	ep   *Endpoint
	app  App
	flow packet.Flow // local -> remote

	state State

	iss    uint32 // initial send sequence
	irs    uint32 // initial receive sequence
	sndNxt uint32
	sndUna uint32
	rcvNxt uint32

	peerWndRaw  uint16
	peerWScale  uint8
	peerHasWS   bool
	peerMSS     uint16
	sawPeerOpts bool

	// sendQ is the unsent application data; sendHead indexes the first
	// unsent byte. Draining by advancing the head (instead of re-slicing
	// the queue forward) keeps the buffer's full capacity available when
	// the connection is recycled — a forward re-slice would strand the
	// consumed prefix and force every reuse to grow a fresh buffer.
	sendQ    []byte
	sendHead int

	// Retransmission state (active only under Endpoint.Retransmit).
	rtxQ       []rtxSeg
	rtxGen     uint64
	rtxRetries int
	rtxRTO     time.Duration

	// The application timer (After): its target and argument, and appGen,
	// which every After and finish bump. Each timer event carries the
	// generation it was armed at and fires only while that is still
	// current. Like rtxGen, appGen is preserved across recycling, so a
	// timer armed on a previous tenant of this struct can never fire into
	// the next one.
	appGen    uint64
	appTarget AppTimer
	appArg    int

	// SimOpen records that this end completed the handshake via TCP
	// simultaneous open.
	SimOpen bool
	// ResetReceived records an abortive close.
	ResetReceived   bool
	closed          bool
	everEstablished bool
}

// State returns the connection's current state.
func (c *Conn) State() State { return c.state }

// Flow returns the connection's local->remote 4-tuple.
func (c *Conn) Flow() packet.Flow { return c.flow }

// Established reports whether the connection reached ESTABLISHED at some
// point (it may have closed since).
func (c *Conn) Established() bool { return c.everEstablished }

// Now returns the current virtual time of the network the connection's
// endpoint is attached to (zero if detached). Applications use it to stamp
// lifecycle events without holding a reference to the simulation clock.
// Safe on a nil receiver — app-layer unit tests drive scripts with no
// connection at all.
func (c *Conn) Now() time.Duration {
	if c == nil || c.ep == nil || c.ep.net == nil {
		return 0
	}
	return c.ep.net.Clock.Now()
}

// AppTimer is the target of a connection's application timer (Conn.After).
type AppTimer interface {
	// OnTimer runs when the timer is due, with the connection it was
	// armed on and the argument it was armed with.
	OnTimer(c *Conn, arg int)
}

// After arms the connection's application timer: d of virtual time from
// now, t.OnTimer(c, arg) runs. It is the application-side counterpart of
// the retransmission timer, used for think-time pauses between keep-alive
// requests. A connection has one application timer, so arming it again
// before it fires replaces the pending one. The timer is dropped if the
// connection finishes (or its struct is recycled onto another flow)
// before it fires: the generation guard is the one armRtx uses, so a
// recycled Conn can never receive a previous tenant's timer. The network
// event targets the Conn itself, so arming allocates nothing. Like Now it
// tolerates a nil receiver (the timer is silently dropped).
func (c *Conn) After(d time.Duration, t AppTimer, arg int) {
	if c == nil || c.closed || c.ep == nil || c.ep.net == nil {
		return
	}
	c.appGen++
	c.appTarget, c.appArg = t, arg
	c.ep.net.AfterTimer(d, (*appTimer)(c), c.appGen)
}

// appTimer is a Conn as the target of its application timer's events;
// the argument is the generation the timer was armed at.
type appTimer Conn

func (t *appTimer) Fire(gen uint64) {
	c := (*Conn)(t)
	if gen != c.appGen || c.appTarget == nil {
		return // replaced, finished, or armed on an earlier tenant
	}
	target := c.appTarget
	c.appTarget = nil
	target.OnTimer(c, c.appArg)
}

// newPacket builds an outbound packet for this connection with the current
// ack and window fields filled in. Packets come from the shared pool: once
// transmitted they belong to the network, which recycles them on networks
// that opt in.
func (c *Conn) newPacket(flags uint8) *packet.Packet {
	p := packet.Get(c.flow.SrcAddr, c.flow.DstAddr, c.flow.SrcPort, c.flow.DstPort)
	p.IP.TTL = c.ep.OS.TTL
	p.TCP.Flags = flags
	p.TCP.Seq = c.sndNxt
	if flags&packet.FlagACK != 0 {
		p.TCP.Ack = c.rcvNxt
	}
	p.TCP.Window = c.ep.OS.InitialWindow
	return p
}

// sendSyn emits the initial SYN with this personality's options.
func (c *Conn) sendSyn() {
	p := c.newPacket(packet.FlagSYN)
	p.TCP.Seq = c.iss
	mss := c.ep.OS.MSS
	p.TCP.AddOption(packet.OptMSS, byte(mss>>8), byte(mss))
	if c.ep.OS.offersWScale() {
		p.TCP.AddOption(packet.OptNOP)
		p.TCP.AddOption(packet.OptWScale, c.ep.OS.WindowScale)
	}
	c.sndNxt = c.iss + 1
	c.sndUna = c.iss
	c.trackRtx(p, c.iss+1)
	c.ep.transmit(p)
}

// sendSynAck emits a SYN+ACK. During simultaneous open the sequence number
// deliberately reuses the ISS (RFC 793: the sequence number is not
// incremented until the handshake-completing ACK) — the behaviour the GFW's
// resynchronization bug trips over.
func (c *Conn) sendSynAck() {
	p := c.newPacket(packet.FlagSYN | packet.FlagACK)
	p.TCP.Seq = c.iss
	mss := c.ep.OS.MSS
	p.TCP.AddOption(packet.OptMSS, byte(mss>>8), byte(mss))
	if c.ep.OS.offersWScale() && c.peerHasWS {
		p.TCP.AddOption(packet.OptNOP)
		p.TCP.AddOption(packet.OptWScale, c.ep.OS.WindowScale)
	}
	c.sndNxt = c.iss + 1
	c.sndUna = c.iss
	c.trackRtx(p, c.iss+1)
	c.ep.transmit(p)
}

// sendRst emits a bare RST with the given sequence number (the shape a
// client produces in response to an unacceptable ACK in SYN-SENT).
func (c *Conn) sendRst(seq uint32) {
	p := c.newPacket(packet.FlagRST)
	p.TCP.Seq = seq
	p.TCP.Ack = 0
	p.TCP.Window = 0
	c.ep.transmit(p)
}

// Send queues application data and transmits as much as the peer's window
// and MSS allow.
func (c *Conn) Send(data []byte) {
	c.sendQ = append(c.sendQ, data...)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// Close performs an orderly close (FIN).
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.trySend()
		c.sendFin()
		c.state = StateFinWait1
	case StateCloseWait:
		c.trySend()
		c.sendFin()
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd, StateListen:
		c.state = StateClosed
		c.finish(false)
	}
}

func (c *Conn) sendFin() {
	p := c.newPacket(packet.FlagFIN | packet.FlagACK)
	c.sndNxt++
	c.trackRtx(p, c.sndNxt)
	c.ep.transmit(p)
}

// effectivePeerWindow returns the peer's advertised window, scaled if the
// peer negotiated window scaling. A SYN+ACK stripped of its wscale option
// (Strategy 8) leaves the raw value — that is the whole trick.
func (c *Conn) effectivePeerWindow() uint32 {
	w := uint32(c.peerWndRaw)
	if c.peerHasWS && c.ep.OS.offersWScale() {
		w <<= c.peerWScale
	}
	return w
}

// trySend transmits queued data subject to the peer window and MSS.
func (c *Conn) trySend() {
	mss := int(c.ep.OS.MSS)
	if c.sawPeerOpts && c.peerMSS > 0 && int(c.peerMSS) < mss {
		mss = int(c.peerMSS)
	}
	for c.sendHead < len(c.sendQ) {
		inflight := c.sndNxt - c.sndUna
		wnd := c.effectivePeerWindow()
		if uint32(inflight) >= wnd {
			return // window full; wait for an ACK
		}
		n := int(wnd - inflight)
		if n > mss {
			n = mss
		}
		if queued := len(c.sendQ) - c.sendHead; n > queued {
			n = queued
		}
		if n <= 0 {
			return
		}
		p := c.newPacket(packet.FlagPSH | packet.FlagACK)
		p.TCP.Payload = append(p.TCP.Payload[:0], c.sendQ[c.sendHead:c.sendHead+n]...)
		c.sendHead += n
		if c.sendHead == len(c.sendQ) {
			c.sendQ = c.sendQ[:0]
			c.sendHead = 0
		}
		c.sndNxt += uint32(n)
		c.trackRtx(p, c.sndNxt)
		c.ep.transmit(p)
	}
}

// finish tears the connection down and fires OnClose exactly once.
func (c *Conn) finish(reset bool) {
	if c.closed {
		return
	}
	c.closed = true
	c.appGen++ // invalidate the pending application timer (After)
	c.appTarget = nil
	if reset {
		mCloseReset.Inc()
	} else {
		mCloseClean.Inc()
	}
	c.releaseRtx()
	c.disarmRtx()
	c.ResetReceived = c.ResetReceived || reset
	c.state = StateClosed
	if c.app != nil {
		c.app.OnClose(c, reset)
	}
	// Recycling is safe exactly here: every finish call site returns
	// without touching the connection again, a packet addressed to a
	// vanished flow is ignored just like one addressed to a closed
	// connection, and stale timer events are invalidated by the preserved
	// generation counters (see recycleConn).
	if c.ep.ReleaseClosed {
		c.ep.recycleConn(c)
	}
}

// handlePacket advances the state machine for one received segment.
func (c *Conn) handlePacket(pkt *packet.Packet) {
	t := &pkt.TCP
	switch c.state {
	case StateClosed:
		return
	case StateListen:
		if t.Flags&packet.FlagRST != 0 {
			return
		}
		if t.Flags&packet.FlagSYN != 0 && t.Flags&packet.FlagACK == 0 {
			c.irs = t.Seq
			c.rcvNxt = t.Seq + 1
			c.notePeerOptions(t)
			c.state = StateSynRcvd
			c.sendSynAck()
		}
	case StateSynSent:
		c.handleSynSent(pkt)
	case StateSynRcvd:
		c.handleSynRcvd(pkt)
	default:
		c.handleSynchronized(pkt)
	}
}

func (c *Conn) handleSynSent(pkt *packet.Packet) {
	t := &pkt.TCP
	hasACK := t.Flags&packet.FlagACK != 0
	hasSYN := t.Flags&packet.FlagSYN != 0
	hasRST := t.Flags&packet.FlagRST != 0

	if hasRST {
		// RFC 793 would abort on some RSTs, but every modern OS the
		// paper tested ignores a RST that does not carry an acceptable
		// ACK in SYN-SENT (§5.1, Strategy 1). Only an acceptable
		// RST+ACK resets.
		if hasACK && t.Ack == c.iss+1 {
			c.finish(true)
		}
		return
	}
	if hasACK && t.Ack != c.iss+1 {
		// Unacceptable ACK: send a RST with seq = the bogus ack value
		// and stay in SYN-SENT (the "induced RST" of Strategies 3–7).
		c.sendRst(t.Ack)
		return
	}
	if hasSYN && hasACK {
		// Normal handshake completion.
		c.irs = t.Seq
		c.rcvNxt = t.Seq + 1
		c.sndUna = t.Ack
		c.ackRtx()
		c.notePeerOptions(t)
		c.absorbSynPayload(t)
		c.state = StateEstablished
		ack := c.newPacket(packet.FlagACK)
		c.ep.transmit(ack)
		c.establish()
		return
	}
	if hasSYN {
		// Simultaneous open: reply SYN+ACK reusing our ISS.
		c.irs = t.Seq
		c.rcvNxt = t.Seq + 1
		c.notePeerOptions(t)
		// A payload on a bare SYN is ignored by all tested stacks
		// (it is legal — TCP Fast Open requires it — §5.1 Strategy 2).
		c.state = StateSynRcvd
		c.SimOpen = true
		c.sendSynAck()
		return
	}
	// Anything else (e.g. a FIN or bare payload before the handshake) is
	// dropped silently, as observed across all tested stacks.
}

func (c *Conn) handleSynRcvd(pkt *packet.Packet) {
	t := &pkt.TCP
	hasACK := t.Flags&packet.FlagACK != 0
	hasSYN := t.Flags&packet.FlagSYN != 0
	hasRST := t.Flags&packet.FlagRST != 0

	if hasRST {
		if seqInWindow(t.Seq, c.rcvNxt, 65535) || t.Seq == c.irs {
			c.finish(true)
		}
		return
	}
	if hasACK && t.Ack == c.iss+1 {
		c.sndUna = t.Ack
		c.ackRtx()
		if c.sawPeerOpts {
			c.peerWndRaw = t.Window
		}
		wasSimOpenSynAck := hasSYN && t.Seq == c.irs
		if hasSYN && c.SimOpen && !wasSimOpenSynAck {
			return
		}
		c.state = StateEstablished
		if wasSimOpenSynAck {
			// The peer completed via its own SYN+ACK (it saw our SYN
			// as simultaneous open); acknowledge it so the peer's
			// handshake finishes too (Figure 1, Strategy 1).
			c.absorbSynPayload(t)
			ack := c.newPacket(packet.FlagACK)
			c.ep.transmit(ack)
		}
		c.establish()
		// Any data riding on the handshake-completing segment.
		if len(t.Payload) > 0 && !hasSYN {
			c.handleSynchronized(pkt)
		}
		return
	}
	if hasSYN && !hasACK && t.Seq == c.irs {
		// Duplicate SYN: re-send the SYN+ACK.
		c.sendSynAck()
	}
}

// establish flips to ESTABLISHED exactly once and kicks the application.
func (c *Conn) establish() {
	c.everEstablished = true
	if c.app != nil {
		c.app.OnEstablished(c)
	}
	c.trySend()
}

func (c *Conn) handleSynchronized(pkt *packet.Packet) {
	t := &pkt.TCP
	if t.Flags&packet.FlagRST != 0 {
		// A RST is accepted only if its sequence number is plausible.
		// A censor desynchronized from the connection injects RSTs the
		// endpoint ignores here.
		if seqInWindow(t.Seq, c.rcvNxt, 65535) {
			c.finish(true)
		}
		return
	}
	if t.Flags&packet.FlagSYN != 0 {
		return // stray SYN in a synchronized state: ignore
	}
	if t.Flags&packet.FlagACK != 0 {
		if ackAcceptable(c.sndUna, t.Ack, c.sndNxt) {
			c.sndUna = t.Ack
			c.ackRtx()
		}
		c.peerWndRaw = t.Window
		switch c.state {
		case StateFinWait1:
			if t.Ack == c.sndNxt {
				c.state = StateFinWait2
			}
		case StateLastAck:
			if t.Ack == c.sndNxt {
				c.finish(false)
				return
			}
		}
	}

	if len(t.Payload) > 0 {
		switch {
		case t.Seq == c.rcvNxt:
			c.rcvNxt += uint32(len(t.Payload))
			ack := c.newPacket(packet.FlagACK)
			c.ep.transmit(ack)
			if c.app != nil {
				c.app.OnData(c, t.Payload)
			}
		default:
			// Out-of-order or stale data: re-ACK what we have.
			ack := c.newPacket(packet.FlagACK)
			c.ep.transmit(ack)
		}
	}

	if t.Flags&packet.FlagFIN != 0 && t.Seq+uint32(len(t.Payload)) == c.rcvNxt {
		c.rcvNxt++
		ack := c.newPacket(packet.FlagACK)
		c.ep.transmit(ack)
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
			c.finish(false) // peer is done sending; surface the close
		case StateFinWait1, StateFinWait2:
			c.state = StateTimeWait
			c.finish(false)
		}
		return
	}

	c.trySend()
}

// notePeerOptions records MSS and window scaling from a SYN or SYN+ACK.
func (c *Conn) notePeerOptions(t *packet.TCP) {
	c.sawPeerOpts = true
	c.peerWndRaw = t.Window
	c.peerHasWS = false
	c.peerWScale = 0
	c.peerMSS = 0
	if o := t.Option(packet.OptMSS); o != nil && len(o.Data) == 2 {
		c.peerMSS = uint16(o.Data[0])<<8 | uint16(o.Data[1])
	}
	if o := t.Option(packet.OptWScale); o != nil && len(o.Data) == 1 {
		c.peerHasWS = true
		c.peerWScale = o.Data[0]
	}
}

// absorbSynPayload applies the personality's handling of a payload riding
// on a SYN+ACK. Linux-family stacks ignore it; Windows/macOS stacks deliver
// it into the stream, corrupting what the application reads (§7).
func (c *Conn) absorbSynPayload(t *packet.TCP) {
	if len(t.Payload) == 0 {
		return
	}
	if c.ep.OS.AcceptsSynAckPayload {
		c.rcvNxt += uint32(len(t.Payload))
		if c.app != nil {
			c.app.OnData(c, t.Payload)
		}
	}
}
