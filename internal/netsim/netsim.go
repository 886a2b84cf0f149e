package netsim

import (
	"math/rand"
	"net/netip"
	"time"

	"geneva/internal/packet"
)

// Direction of a packet relative to the connection's client.
type Direction int

// Directions.
const (
	ToServer Direction = iota // client -> server ("outbound" from the censor's client)
	ToClient                  // server -> client
)

func (d Direction) String() string {
	if d == ToServer {
		return "->server"
	}
	return "->client"
}

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == ToServer {
		return ToClient
	}
	return ToServer
}

// Host is an endpoint attached to the network. Receive is called for every
// packet delivered to the host; the host responds by calling Network.Send.
type Host interface {
	Addr() netip.Addr
	Receive(n *Network, pkt *packet.Packet)
}

// Verdict is a middlebox's decision about one observed packet.
type Verdict struct {
	// Drop suppresses forwarding (in-path censors only; on-path censors
	// physically cannot drop, §2.1).
	Drop bool
	// InjectToClient / InjectToServer are packets the box fabricates.
	// They are delivered without further middlebox processing. The slices
	// belong to the box and stay valid only until its next Process call,
	// which may reuse their backing arrays: a caller that keeps the
	// packets past that copies the slices first. The packets themselves
	// pass to the caller.
	InjectToClient []*packet.Packet
	InjectToServer []*packet.Packet
	// Note is the middlebox's own text for the trace (e.g. "302 injected");
	// the network records it only when a Trace is attached.
	Note string
}

// Middlebox observes packets at the censor hop.
type Middlebox interface {
	Name() string
	// Process sees every packet crossing the censor hop, in order, with
	// the censor-relative direction and the current virtual time. The
	// verdict's injection slices may borrow the box's buffers, valid until
	// its next Process call; the network enqueues their packets before it
	// calls any box again.
	Process(pkt *packet.Packet, dir Direction, now time.Duration) Verdict
}

// Network joins a client and a server across a path of hops with
// middleboxes attached HopsToCensor hops away from the client.
type Network struct {
	Clock *Clock
	// HopsToCensor is the number of routers between the client and the
	// censor; HopsBeyondCensor between the censor and the server.
	HopsToCensor     int
	HopsBeyondCensor int
	// LinkDelay is the per-hop one-way latency.
	LinkDelay time.Duration
	// Trace, if non-nil, records every packet event (each packet's fate,
	// impairment duplicates, injections, censor notes) for waterfalls and
	// failure classification. With Trace nil the network only bumps the
	// events' counters — no entries, no clones — which is the fitness-trial
	// default.
	Trace *Trace
	// RecyclePackets returns packets to the shared pool once they reach a
	// terminal point (delivered, dropped, lost, expired, unroutable).
	// Opt-in: only enable when every attached Host, Middlebox, and hook
	// copies what it keeps rather than retaining delivered *Packet
	// pointers (true for the eval rigs, which set this). Tracing stays
	// safe either way because a Trace clones each packet as it records it.
	RecyclePackets bool

	client, server Host
	clients        map[netip.Addr]Host
	boxes          []Middlebox

	// impair holds each Direction's profile and impaired whether it is
	// active, resolved once by SetImpairments (and cleared by ResetMulti) so
	// the unimpaired path reads one flag per packet.
	impair    [2]Profile
	impaired  [2]bool
	impairRNG *rand.Rand

	queue eventQueue
	seq   int
}

// New builds a network with sensible defaults: 5 hops to the censor,
// 5 beyond it, 1 ms per hop.
func New(client, server Host, boxes ...Middlebox) *Network {
	n := new(Network)
	n.ResetMulti(server, []Host{client}, boxes...)
	return n
}

// NewMulti builds a network with one server and several clients (all on the
// censored side of the middleboxes). Client-bound packets route by
// destination address.
func NewMulti(server Host, clients []Host, boxes ...Middlebox) *Network {
	n := new(Network)
	n.ResetMulti(server, clients, boxes...)
	return n
}

// ResetMulti returns n, in place, to the state NewMulti(server, clients,
// boxes...) builds, and is the one path that wires a network: the clock and
// the event sequence restart at zero, packets still queued go back to the
// pool (if RecyclePackets was on) and pending timers are dropped unrun, the
// defaults New sets are restored, impairments are off, Trace is nil and
// RecyclePackets is off. The client table holds exactly clients afterwards,
// and Client is the first of them. Both event lanes, the client table and
// the box list keep their capacity, so a recycled network reaches its
// steady state without allocating.
func (n *Network) ResetMulti(server Host, clients []Host, boxes ...Middlebox) {
	if len(clients) == 0 {
		panic("netsim: a network requires at least one client")
	}
	q := n.queue
	for q.len() > 0 {
		if e := q.pop(); e.pkt != nil {
			n.recycle(e.pkt)
		}
	}
	clock := n.Clock
	if clock == nil {
		clock = &Clock{}
	}
	*clock = Clock{}
	table := n.clients
	if table == nil {
		table = make(map[netip.Addr]Host, len(clients))
	}
	clear(table)
	for _, c := range clients {
		table[c.Addr()] = c
	}
	clear(n.boxes) // drop stale boxes past the new length
	*n = Network{
		Clock:            clock,
		HopsToCensor:     5,
		HopsBeyondCensor: 5,
		LinkDelay:        time.Millisecond,
		client:           clients[0],
		server:           server,
		clients:          table,
		boxes:            append(n.boxes[:0], boxes...),
		queue:            q,
	}
}

// Client returns the attached client host.
func (n *Network) Client() Host { return n.client }

// Server returns the attached server host.
func (n *Network) Server() Host { return n.server }

// Boxes returns the attached middleboxes.
func (n *Network) Boxes() []Middlebox { return n.boxes }

// event is one packet leg or one timer on the queue. A leg has no target and
// a timer has no packet or direction, so arg serves both: a timer's
// argument, or a leg's direction (its low bit) and legInjected. Sharing the
// word keeps an event at 48 bytes and a timer's argument at 64 bits, wide
// enough for any generation counter.
type event struct {
	at    time.Duration
	seq   int
	pkt   *packet.Packet // a leg's packet; nil for a timer
	timer Timer          // a timer's target; nil for a leg
	arg   uint64
}

// legInjected marks a leg a box injected, which skips middlebox processing.
const legInjected = 2

func (e *event) dir() Direction { return Direction(e.arg & 1) }

func (e *event) injected() bool { return e.arg&legInjected != 0 }

// Timer is the target of a timer event. Fire runs when the timer is due,
// with the argument it was armed with. A target is typically a long-lived
// object that arms many timers (a connection, a cell), so arming one
// allocates nothing; the argument tells its firings apart.
type Timer interface {
	Fire(arg uint64)
}

// funcTimer adapts a func to Timer. A func value is pointer-shaped, so
// storing one in the interface allocates nothing.
type funcTimer func()

func (f funcTimer) Fire(uint64) { f() }

// Send transmits pkt from the given host toward the other endpoint. Hosts
// call this from Receive; harnesses call it to start a connection.
func (n *Network) Send(from Host, pkt *packet.Packet) {
	dir := ToServer
	if from == n.server {
		dir = ToClient
	}
	n.enqueue(pkt, dir, false)
}

// Inject delivers a fabricated packet toward one endpoint without middlebox
// processing (used by the harness for instrumented client behaviour).
func (n *Network) Inject(pkt *packet.Packet, dir Direction) {
	n.enqueue(pkt, dir, true)
}

func (n *Network) enqueue(pkt *packet.Packet, dir Direction, fromCensor bool) {
	if !n.impaired[dir] {
		n.queue.pushLeg(n.packetEvent(pkt, dir, fromCensor, n.LinkDelay))
		return
	}
	prof := &n.impair[dir]
	// Impairment draws happen in a fixed order (loss, primary-copy delay,
	// duplication, duplicate-copy delay) so a seeded rng always produces
	// the same schedule.
	if n.impairRNG.Float64() < prof.Loss {
		n.discard(EventLost, pkt, dir)
		return
	}
	n.queue.heap.push(n.packetEvent(pkt, dir, fromCensor, n.LinkDelay+n.impairExtra(prof)))
	if n.impairRNG.Float64() < prof.Duplicate {
		n.record(EventDuplicated, pkt, dir, nil, "")
		n.queue.heap.push(n.packetEvent(pkt.ClonePooled(), dir, fromCensor, n.LinkDelay+n.impairExtra(prof)))
	}
}

// packetEvent stamps one packet copy, arriving delay from now, with the
// next sequence number.
func (n *Network) packetEvent(pkt *packet.Packet, dir Direction, fromCensor bool, delay time.Duration) event {
	n.seq++
	arg := uint64(dir)
	if fromCensor {
		arg |= legInjected
	}
	return event{at: n.Clock.Now() + delay, seq: n.seq, pkt: pkt, arg: arg}
}

// AfterTimer schedules t.Fire(arg) at virtual time Now()+d, interleaved with
// packet deliveries in timestamp order. Endpoint retransmission timers are
// built on this; a pending timer keeps the network non-quiet, so timer
// users must bound their rearming (the tcpstack retransmit machinery caps
// its retries for exactly this reason).
func (n *Network) AfterTimer(d time.Duration, t Timer, arg uint64) {
	if d < 0 {
		d = 0
	}
	n.seq++
	n.queue.heap.push(event{at: n.Clock.Now() + d, seq: n.seq, timer: t, arg: arg})
}

// After schedules fn to run at virtual time Now()+d: AfterTimer with fn as
// the target.
func (n *Network) After(d time.Duration, fn func()) { n.AfterTimer(d, funcTimer(fn), 0) }

// Run processes queued packets until the network is quiet or limit events
// have been handled. It returns the number of events processed. A limit of
// 0 means a generous default (100k), enough for any single connection.
func (n *Network) Run(limit int) int {
	if limit <= 0 {
		limit = 100000
	}
	processed := 0
	for n.queue.len() > 0 && processed < limit {
		e := n.queue.pop()
		n.Clock.advanceTo(e.at)
		if e.timer != nil {
			mTimersFired.Inc()
			e.timer.Fire(e.arg)
		} else {
			n.deliver(&e)
		}
		processed++
	}
	return processed
}

// Quiet reports whether no packets are in flight.
func (n *Network) Quiet() bool { return n.queue.len() == 0 }

// deliver carries one packet across its two legs: sender -> censor hop,
// then censor hop -> receiver.
//
// TTL boundary semantics (pinned; see TestTTLBoundary): each leg requires
// TTL >= hops and decrements by hops, so a packet whose TTL exactly equals
// a leg's hop count survives that leg. TTL == hopsBefore reaches the censor
// and, if hopsAfter > 0, expires on the second leg; TTL == hopsBefore +
// hopsAfter is delivered to the endpoint with TTL 0. This mirrors real
// forwarding, where a router decrements before forwarding and drops only on
// TTL reaching 0 mid-path — the receiving host itself never discards on
// TTL. The paper's low-TTL insertion strategies (§5.2) depend on the first
// half (TTL tuned to die between censor and server), and changing either
// edge would silently shift every evolved TTL value by one hop.
func (n *Network) deliver(e *event) {
	dir := e.dir()
	hopsBefore, hopsAfter := n.HopsToCensor, n.HopsBeyondCensor
	if dir == ToClient {
		hopsBefore, hopsAfter = n.HopsBeyondCensor, n.HopsToCensor
	}

	if !e.injected() {
		// Leg 1: sender -> censor hop.
		if int(e.pkt.IP.TTL) < hopsBefore {
			n.discard(EventExpiredBefore, e.pkt, dir)
			return
		}
		e.pkt.IP.TTL -= uint8(hopsBefore)

		drop := false
		now := n.Clock.Now()
		for _, b := range n.boxes {
			v := b.Process(e.pkt, dir, now)
			if v.Note != "" {
				n.record(EventCensor, e.pkt, dir, b, v.Note)
			}
			drop = drop || v.Drop
			for _, inj := range v.InjectToClient {
				n.record(EventInjected, inj, ToClient, b, "")
				n.enqueue(inj, ToClient, true)
			}
			for _, inj := range v.InjectToServer {
				n.record(EventInjected, inj, ToServer, b, "")
				n.enqueue(inj, ToServer, true)
			}
		}
		if drop {
			n.discard(EventDropped, e.pkt, dir)
			return
		}
	}

	// Leg 2: censor hop -> receiver.
	if int(e.pkt.IP.TTL) < hopsAfter {
		n.discard(EventExpiredAfter, e.pkt, dir)
		return
	}
	e.pkt.IP.TTL -= uint8(hopsAfter)

	dst := n.server
	if dir == ToClient {
		c, ok := n.clients[e.pkt.IP.Dst]
		if !ok {
			// A packet for an address nobody holds (spoofed or stale):
			// it falls off the edge of the network.
			n.discard(EventNoRoute, e.pkt, dir)
			return
		}
		dst = c
	}
	n.record(EventDelivered, e.pkt, dir, nil, "")
	dst.Receive(n, e.pkt)
	n.recycle(e.pkt)
}

// record counts one packet event on its kind's counter and, with a Trace
// attached, traces it; by is the middlebox behind an injection or a note.
func (n *Network) record(ev Event, pkt *packet.Packet, dir Direction, by Middlebox, note string) {
	events[ev].counter.Inc()
	if n.Trace == nil {
		return
	}
	e := TraceEntry{Time: n.Clock.Now(), Dir: dir, Pkt: pkt, Event: ev, Note: note}
	if by != nil {
		e.by = by.Name()
	}
	n.Trace.add(e)
}

// discard ends pkt's journey short of its receiver with the fate ev.
func (n *Network) discard(ev Event, pkt *packet.Packet, dir Direction) {
	n.record(ev, pkt, dir, nil, "")
	n.recycle(pkt)
}

// recycle returns a packet that reached a terminal point to the pool when
// RecyclePackets is enabled; the Trace has already cloned anything it
// keeps by the time this runs.
func (n *Network) recycle(p *packet.Packet) {
	if n.RecyclePackets {
		mRecycled.Inc()
		packet.Put(p)
	}
}
