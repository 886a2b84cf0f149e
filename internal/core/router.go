package core

import (
	"math/rand"
	"net/netip"
	"sync"

	"geneva/internal/packet"
)

// Router implements §8's deployment model: a server helping clients in
// several censoring regimes must pick a strategy *per client*, and it must
// do so from nothing but the client's SYN — the only packet it has seen
// when the SYN+ACK (every strategy's trigger) goes out.
//
// Routes map client address prefixes (standing in for the paper's
// country-level IP geolocation) to engines; clients matching no route get
// the fallback (nil = no manipulation). Route lookup happens per flow and
// is cached for the flow's lifetime so mid-connection packets keep their
// strategy even if the table changes.
type Router struct {
	mu       sync.RWMutex
	routes   []route
	fallback *Engine
	flows    map[packet.Flow]*Engine
	// pins override the prefix table per client address for NEW flows;
	// flows already cached in `flows` keep their engine, so a re-pin
	// never switches a strategy mid-connection. PinClient's only caller
	// is bench/'s replay of a fleet cell (the fleet pins through
	// eval.Sandbox.Pin).
	pins map[netip.Addr]*Engine
	// pass is the reusable pass-through result for flows with no engine,
	// mirroring Engine's scratch: Outbound's result is only valid until
	// the next call. Like the engines behind the routes (which keep
	// per-engine scratch of their own), Outbound is single-caller; the
	// mutex protects the route/flow tables, not the result buffer.
	pass [1]*packet.Packet
}

type route struct {
	prefix netip.Prefix
	engine *Engine
}

// NewRouter builds an empty router with an optional fallback engine.
func NewRouter(fallback *Engine) *Router {
	return &Router{
		fallback: fallback,
		flows:    make(map[packet.Flow]*Engine),
	}
}

// Route installs a strategy for clients within the prefix. More-specific
// prefixes win; among equal lengths, the earlier installation wins.
func (r *Router) Route(prefix netip.Prefix, s *Strategy, rng *rand.Rand) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = append(r.routes, route{prefix: prefix, engine: NewEngine(s, rng)})
}

// PinClient overrides the route table for one client address: new flows to
// that client use the given engine (nil e removes the pin, restoring prefix
// routing). Existing flows are untouched — their engine was cached at first
// packet. Engines are single-caller like the router itself; pinning the
// same engine to several addresses is fine as long as Outbound stays
// single-threaded (the cell model).
func (r *Router) PinClient(client netip.Addr, e *Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e == nil {
		delete(r.pins, client)
		return
	}
	if r.pins == nil {
		r.pins = make(map[netip.Addr]*Engine)
	}
	r.pins[client] = e
}

// engineFor picks the engine for a destination (client) address.
func (r *Router) engineFor(client netip.Addr) *Engine {
	if e, ok := r.pins[client]; ok {
		return e
	}
	var best *Engine
	bestLen := -1
	for _, rt := range r.routes {
		if rt.prefix.Contains(client) && rt.prefix.Bits() > bestLen {
			best, bestLen = rt.engine, rt.prefix.Bits()
		}
	}
	if best == nil {
		return r.fallback
	}
	return best
}

// Outbound is the tcpstack.Endpoint hook: it routes each outbound packet
// through the strategy chosen for that packet's client. The returned slice
// is only valid until the next call (same contract as Engine.Outbound).
func (r *Router) Outbound(p *packet.Packet) []*packet.Packet {
	flow := p.Flow()
	r.mu.Lock()
	eng, ok := r.flows[flow]
	if !ok {
		eng = r.engineFor(p.IP.Dst)
		r.flows[flow] = eng
	}
	r.mu.Unlock()
	if eng == nil {
		r.pass[0] = p
		return r.pass[:1]
	}
	return eng.Outbound(p)
}

// Flows reports how many flows have pinned engines (for tests/metrics).
func (r *Router) Flows() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.flows)
}
