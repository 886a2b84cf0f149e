package tcpstack

import (
	"math/rand"
	"net/netip"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// Endpoint is a host with a TCP stack. It implements netsim.Host and owns
// any number of connections. The same type serves as client and server; the
// paper's server-side Geneva engine attaches via the Outbound hook, exactly
// where NFQueue sits on a real deployment.
type Endpoint struct {
	// OS selects the endpoint's TCP personality.
	OS Personality
	// NewServerApp builds the application for each passively accepted
	// connection. Required to Listen.
	NewServerApp func(*Conn) App
	// Outbound, if set, transforms every packet the stack emits into zero
	// or more packets to place on the wire. This is the Geneva engine's
	// attachment point (and the harness's client-instrumentation hook for
	// the §5 follow-up experiments).
	Outbound func(*packet.Packet) []*packet.Packet
	// Retransmit arms RTO-driven retransmission for sequence-consuming
	// segments (SYN, SYN+ACK, data, FIN). Off by default: on a lossless
	// network it would only arm a timer per segment (see the package doc).
	Retransmit bool
	// ReleaseClosed opts the endpoint into connection recycling: a
	// connection is removed from the table the moment it finishes (clean
	// close or reset) and its struct — with the send-buffer capacity it
	// grew — goes on a freelist for the next Connect or accept.
	// Off by default: harnesses that inspect Conns() after a run (most
	// tests) need finished connections to stay visible. The fleet harness
	// turns it on so long multi-wave cells don't accrete one Conn per
	// connection ever served.
	ReleaseClosed bool

	addr      netip.Addr
	rng       *rand.Rand
	net       *netsim.Network
	conns     map[packet.Flow]*Conn
	listeners map[uint16]bool
	free      []*Conn
	nextPort  uint16
}

// NewEndpoint builds an endpoint at addr with the given personality. The
// rng drives ISN and ephemeral-port choice so trials are reproducible.
func NewEndpoint(addr netip.Addr, os Personality, rng *rand.Rand) *Endpoint {
	e := new(Endpoint)
	e.Reset(addr, os, rng)
	return e
}

// Reset returns e, in place, to the state NewEndpoint(addr, os, rng)
// builds: every connection, live or finished, goes on the freelist (its
// retransmission copies back to the packet pool), the listeners are
// cleared, the hooks and switches are unset, the endpoint is detached, and
// nextPort is redrawn from rng. Pending timers of the old connections
// still sit on the network's queue, so reset that network before it runs
// again (Network.ResetMulti drops them unrun); the generation guards would
// ignore them anyway, so the freelist's order cannot show.
func (e *Endpoint) Reset(addr netip.Addr, os Personality, rng *rand.Rand) {
	for _, c := range e.conns {
		c.releaseRtx()
		e.recycleConn(c)
	}
	conns := e.conns
	if conns == nil {
		conns = make(map[packet.Flow]*Conn, 1)
	}
	clear(e.listeners)
	*e = Endpoint{
		OS:        os,
		addr:      addr,
		rng:       rng,
		conns:     conns,
		listeners: e.listeners,
		free:      e.free,
		nextPort:  uint16(32768 + rng.Intn(16384)),
	}
}

// Addr implements netsim.Host.
func (e *Endpoint) Addr() netip.Addr { return e.addr }

// Attach wires the endpoint to a network. Connect and transmit require it;
// Receive self-attaches.
func (e *Endpoint) Attach(n *netsim.Network) { e.net = n }

// Listen accepts connections on port; NewServerApp must be set. The
// listener table is lazy — client endpoints never pay for it.
func (e *Endpoint) Listen(port uint16) {
	if e.listeners == nil {
		e.listeners = make(map[uint16]bool, 1)
	}
	e.listeners[port] = true
}

// Conns returns the endpoint's connection table (for inspection in tests).
func (e *Endpoint) Conns() map[packet.Flow]*Conn { return e.conns }

// Connect opens an active connection to raddr:rport running app and returns
// it. Packets begin to flow on the next Network.Run.
//
// The ephemeral port is the next free one after nextPort. A bare increment
// worked only while no endpoint lived long enough to wrap the uint16: after
// ~33k connects the counter wraps past 65535 into port 0 (not a valid
// source port) and on through the listener/low-port range, where it would
// silently overwrite a live connection's table entry — orphaning that
// connection — or shadow a listening port. Long-horizon reconnect churn
// hits all three, so the port walk skips them.
func (e *Endpoint) Connect(raddr netip.Addr, rport uint16, app App) *Conn {
	c := e.getConn()
	c.app = app
	c.flow = packet.Flow{
		SrcAddr: e.addr,
		DstAddr: raddr, DstPort: rport,
	}
	for tries := 0; ; tries++ {
		if tries > 65536 {
			panic("tcpstack: no free ephemeral port on endpoint " + e.addr.String())
		}
		e.nextPort++
		if e.nextPort == 0 || e.listeners[e.nextPort] {
			continue
		}
		c.flow.SrcPort = e.nextPort
		if _, live := e.conns[c.flow]; !live {
			break
		}
	}
	c.state = StateSynSent
	c.iss = e.rng.Uint32()
	e.conns[c.flow] = c
	c.sendSyn()
	return c
}

// getConn takes a connection struct from the freelist (ReleaseClosed
// endpoints) or allocates one. Recycled structs come back field-zeroed
// except for the buffer capacities and the retransmission generation (see
// recycleConn).
func (e *Endpoint) getConn() *Conn {
	if n := len(e.free); n > 0 {
		c := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		c.closed = false
		return c
	}
	return &Conn{ep: e}
}

// recycleConn retires a finished connection: it leaves the table
// immediately (exactly as if it had never existed — a packet to a closed
// connection and a packet to no connection are both ignored) and its struct
// goes on the freelist. The send buffer's capacity is kept (a Conn keeps no
// receive buffer: in-order data goes straight to App.OnData); rtxGen and
// appGen are preserved, NOT zeroed, because timer events in flight target
// this *Conn with an old generation — the generations must keep
// monotonically increasing across reuses for those stale events to stay
// invalidated.
func (e *Endpoint) recycleConn(c *Conn) {
	delete(e.conns, c.flow)
	gen := c.rtxGen
	appGen := c.appGen
	sendQ := c.sendQ[:0]
	*c = Conn{ep: e, state: StateClosed, closed: true, rtxGen: gen, appGen: appGen, sendQ: sendQ}
	e.free = append(e.free, c)
}

// transmit routes a stack-generated packet through the Outbound hook onto
// the network. Ownership of p (and of every packet the hook returns) passes
// to the network, which may recycle them after delivery; hooks that keep a
// packet beyond their return must Clone it.
func (e *Endpoint) transmit(p *packet.Packet) {
	mSegmentsSent.Inc()
	if e.Outbound == nil {
		e.net.Send(e, p)
		return
	}
	for _, out := range e.Outbound(p) {
		if out != nil {
			e.net.Send(e, out)
		}
	}
}

// Receive implements netsim.Host: it validates the checksum markers, finds
// or creates the owning connection, and advances its state machine.
func (e *Endpoint) Receive(n *netsim.Network, pkt *packet.Packet) {
	e.net = n
	// Endpoints drop segments with corrupted checksums. The simulator
	// marks deliberate corruption with the Raw flags rather than
	// re-serializing every packet; censors (which do not validate
	// checksums) ignore the marker. This is what makes "insertion
	// packets" client-invisible but censor-visible (§7).
	if pkt.TCP.RawChecksum || pkt.IP.RawChecksum {
		mChecksumDrop.Inc()
		return
	}
	mSegmentsRcvd.Inc()
	flow := packet.Flow{
		SrcAddr: e.addr, SrcPort: pkt.TCP.DstPort,
		DstAddr: pkt.IP.Src, DstPort: pkt.TCP.SrcPort,
	}
	if c, ok := e.conns[flow]; ok {
		c.handlePacket(pkt)
		return
	}
	// No connection: maybe a listener accepts it.
	if e.listeners[pkt.TCP.DstPort] &&
		pkt.TCP.Flags&packet.FlagSYN != 0 &&
		pkt.TCP.Flags&(packet.FlagACK|packet.FlagRST) == 0 {
		c := e.getConn()
		c.flow = flow
		c.state = StateListen
		c.iss = e.rng.Uint32()
		if e.NewServerApp != nil {
			c.app = e.NewServerApp(c)
		}
		e.conns[flow] = c
		c.handlePacket(pkt)
	}
	// Anything else is silently ignored (no RFC 1122 RST generation:
	// closed-port probes are not part of any experiment).
}
