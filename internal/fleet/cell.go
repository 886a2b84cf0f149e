package fleet

import (
	"math/rand"
	"sync"
	"time"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/selector"
	"geneva/internal/tcpstack"
)

// scriptKey identifies one client-script shape: scripts of the same protocol
// but different keep-alive lengths (a reconnect resumes with only the
// remaining exchanges) have different transcripts, so each shape has a
// template of its own.
type scriptKey struct {
	proto string
	exch  int
}

// cellKey is what a cell's censor and templates are built from: the
// country picks the censor and every session, and SessionRequests and
// RequestGap extend each session and each reconnect tail. A cell keeps its
// censor and templates from run to run, so it only ever serves its own key.
type cellKey struct {
	country  string
	requests int
	gap      time.Duration
}

// keyOf is the key of wl's cells in country.
func keyOf(wl Workload, country string) cellKey {
	return cellKey{country: country, requests: wl.SessionRequests, gap: wl.RequestGap}
}

// cellPools holds one pool of idle cells per key. A cell goes back to its
// pool when its run has been aggregated and comes out, for a plan of the
// same key, through reset.
var cellPools struct {
	sync.Mutex
	m map[cellKey]*sync.Pool
}

// cellPool returns the pool of key's cells.
func cellPool(key cellKey) *sync.Pool {
	cellPools.Lock()
	defer cellPools.Unlock()
	p := cellPools.m[key]
	if p == nil {
		if cellPools.m == nil {
			cellPools.m = map[cellKey]*sync.Pool{}
		}
		p = &sync.Pool{New: func() any { return new(cell) }}
		cellPools.m[key] = p
	}
	return p
}

// cell is one wired cell network, leased from its key's pool for one run:
// newCell wires it, it stays alive to the end of its last wave so the
// scheduler can drive all cells in wave lockstep, and Run puts it back once
// the run's result is aggregated. Everything in a cell runs on a single
// goroutine per wave against the cell's own virtual clock; only its
// residual exports leave it.
type cell struct {
	wl   Workload
	plan cellPlan
	home *sync.Pool // the pool of the cell's key

	server *tcpstack.Endpoint
	// slots holds one client endpoint per slot index. A pooled cell may
	// hold more than its plan uses; only the plan's slots are wired, and
	// hosts lists them for the network.
	slots    []*tcpstack.Endpoint
	hosts    []netsim.Host
	sessions map[string]*apps.Session // full-length session per protocol
	net      *netsim.Network
	cen      eval.CensorCounter
	resid    censor.ResidualCarrier // non-nil iff the censor shares residual state
	shifter  censor.ParamShifter    // non-nil iff the censor can shift mid-run
	lease    *eval.RouterLease
	rngs     eval.Rands

	// Portfolio delivery: armLease is nil without a portfolio and on
	// unrouted-country cells (the uncensored population matches no route,
	// so no server-side strategy applies to it either way); selCell and
	// selRng are nil unless Selection is on as well.
	armLease *eval.PortfolioLease
	selCell  *selector.Cell
	selRng   *rand.Rand

	// exports holds the residual windows the cell published in the current
	// wave (nil when its censor shares no residual state); the barrier
	// folds and clears it.
	exports residualLedger

	// waveStart[w] is the index into plan.conns of wave w's first
	// connection, and waveStart[waves()] is len(plan.conns): plan appends
	// a cell's connections wave by wave, so each wave is one range.
	waveStart []int
	res       cellResult

	// Every script the cell runs is a copy of a template leased from
	// scripts: client templates by shape, server templates by port. The
	// templates are read-only (a full session's are SessionFor's cached
	// scripts, shared across goroutines), so only the copies are ever run
	// or modified. A copy goes back once its connection can no longer
	// receive a packet: a client's when its attempt settles, a server's
	// (listed in serverLive) at wave end. The templates depend only on the
	// cell's key, so a pooled cell keeps them.
	clients    map[scriptKey]*apps.Script
	servers    map[uint16]*apps.Script
	scripts    apps.Scripts
	serverLive []*apps.Script
	live       []inflight

	// serveApp and routeOut are the server's NewServerApp and Outbound,
	// bound once when the cell is first built.
	serveApp func(*tcpstack.Conn) tcpstack.App
	routeOut func(*packet.Packet) []*packet.Packet
}

// newCell wires one cell — server + pooled deployment router, censor,
// clients — without running anything: a pooled cell of the plan's key, or
// an empty one, reset for cp.
func newCell(wl Workload, cp cellPlan, ctl control) *cell {
	home := cellPool(keyOf(wl, cp.country))
	c := home.Get().(*cell)
	c.home = home
	c.reset(wl, cp, ctl)
	return c
}

// reset wires c for cp, in place: the only path that wires a cell, so a
// pooled cell is in exactly the state an empty one reaches. The endpoints,
// the censor and the network are reset in place, the template maps keep
// what earlier runs of the key built, and every freelist keeps its
// capacity. Each stream is seeded from the cell's plan index, so the order
// of the draws is the plan's, never the scheduler's.
func (c *cell) reset(wl Workload, cp cellPlan, ctl control) {
	if c.net == nil {
		c.server, c.net = new(tcpstack.Endpoint), new(netsim.Network)
		c.sessions = map[string]*apps.Session{}
		c.clients = map[scriptKey]*apps.Script{}
		c.servers = map[uint16]*apps.Script{}
		c.serveApp = c.serve
		c.routeOut = c.route
	}
	c.wl, c.plan = wl, cp
	cellSeed := wl.Seed + int64(cp.index)*cellSeedStride
	// Impaired links arm every endpoint's retransmission.
	im := netsim.Symmetric(wl.Impairments)

	c.server.Reset(eval.ServerAddr, tcpstack.DefaultServer, c.rngs.Acquire(cellSeed+seedServer))
	c.lease = eval.AcquireDeploymentRouter(cellSeed + seedRouter)
	c.server.Outbound = c.routeOut
	c.server.ReleaseClosed, c.server.Retransmit = true, im.Enabled()
	c.server.Attach(c.net)

	// Portfolio delivery: routed countries get one engine per arm, seeded
	// per cell at cellSeed + eval.SeedArmBase + arm, and pullArm pins an
	// arm to the client's address per attempt. Unrouted countries (the
	// uncensored population) keep matching no route — the server doesn't
	// know them, selected or not. (finish dropped the last run's leases.)
	if _, routed := eval.RouterPrefixes[cp.country]; routed && !ctl.portfolio.IsZero() {
		c.armLease = eval.AcquirePortfolioEngines(ctl.portfolio, cellSeed)
		if ctl.state != nil {
			c.selCell = ctl.state.NewCell()
			c.selRng = c.rngs.Acquire(cellSeed + seedSelector)
		}
	}

	// One forbidden session per protocol in the cell; the server listens on
	// the port of every protocol the plan runs and dispatches the matching
	// application by the port the client connected to. Fleet scripts close
	// after their transcripts (CloseAtEnd) so both sides' connections
	// finish and recycle — without that, a 10^5-connection run accretes
	// every connection ever served in the server's table.
	for _, cn := range cp.conns {
		sess, ok := c.sessions[cn.protocol]
		if !ok {
			sess = eval.SessionFor(cp.country, cn.protocol, true)
			if wl.SessionRequests > 1 {
				// Extend the one-shot session into a keep-alive one.
				// Protocols whose transcript isn't a single exchange come
				// back unchanged and keep running one-shot. The server
				// template answers each request as it arrives, so the same
				// listener also serves shorter reconnect tails.
				sess = sess.KeepAlive(wl.SessionRequests, wl.RequestGap)
			}
			c.sessions[cn.protocol] = sess
			c.clients[scriptKey{proto: cn.protocol, exch: sess.Exchanges()}] = sess.Client()
			c.servers[sess.Port] = sess.Server()
		}
		c.server.Listen(sess.Port)
	}
	c.server.NewServerApp = c.serveApp

	// Client endpoints, one per slot the plan uses. plan numbers a cell's
	// slots from 0 in order of first use (the routed slots in wave 0, the
	// unprotected ones after them in wave 1), so they are 0..n-1 and slot
	// order is the order of first use.
	n := 0
	for _, cn := range cp.conns {
		n = max(n, cn.slot+1)
	}
	for len(c.slots) < n {
		c.slots = append(c.slots, new(tcpstack.Endpoint))
	}
	c.hosts = c.hosts[:0]
	for s, ep := range c.slots[:n] {
		ep.Reset(clientAddr(cp.country, s, s >= wl.ClientsPerCell),
			tcpstack.DefaultClient, c.rngs.Acquire(cellSeed+seedClients+int64(s)))
		ep.ReleaseClosed, ep.Retransmit = true, im.Enabled()
		ep.Attach(c.net)
		c.hosts = append(c.hosts, ep)
	}

	// The pool key holds the country, so a pooled cell's censor is the
	// country's: Reset returns it to what NewCensor builds, undoing a
	// Shift too.
	if rng := c.rngs.Acquire(cellSeed + seedCensor); c.cen != nil {
		c.cen.Reset(rng)
	} else {
		c.cen = eval.NewCensor(cp.country, censor.Default(), rng)
		c.resid, _ = c.cen.(censor.ResidualCarrier)
		c.shifter, _ = c.cen.(censor.ParamShifter)
	}
	if c.resid != nil && c.exports == nil {
		c.exports = residualLedger{}
	}

	// The endpoints went first because the network's client table needs
	// their new addresses; nothing runs in between.
	if c.cen != nil {
		c.net.ResetMulti(c.server, c.hosts, c.cen)
	} else {
		c.net.ResetMulti(c.server, c.hosts)
	}
	c.net.RecyclePackets = true
	if im.Enabled() {
		c.net.SetImpairments(im, c.rngs.Acquire(cellSeed+seedImpairments))
	}

	c.waveStart = c.waveStart[:0]
	for i, cn := range cp.conns {
		for len(c.waveStart) <= cn.wave {
			c.waveStart = append(c.waveStart, i)
		}
	}
	c.waveStart = append(c.waveStart, len(cp.conns))

	conns := c.res.conns
	if cap(conns) < len(cp.conns) {
		conns = make([]connResult, len(cp.conns))
	} else {
		conns = conns[:len(cp.conns)]
		clear(conns)
	}
	c.res = cellResult{country: cp.country, conns: conns}
}

// waves is the number of waves the cell runs.
func (c *cell) waves() int { return len(c.waveStart) - 1 }

// serve is the server's NewServerApp: a copy of the template of the port
// the client connected to, released at wave end.
func (c *cell) serve(conn *tcpstack.Conn) tcpstack.App {
	s := c.scripts.Lease(c.servers[conn.Flow().SrcPort])
	s.CloseAtEnd = true
	c.serverLive = append(c.serverLive, s)
	return s
}

// route is the server's Outbound: the leased deployment router.
func (c *cell) route(p *packet.Packet) []*packet.Packet { return c.lease.Router.Outbound(p) }

// drain runs the cell network until no event is pending.
func (c *cell) drain() {
	for !c.net.Quiet() {
		c.net.Run(0)
	}
}

// leaseClient leases the client script for an attempt owing m exchanges
// of proto: a copy of the template of that shape. A reconnecting client's
// shorter keep-alive tail gets its template on first use; a cell
// reconnects into the same few shapes over and over.
func (c *cell) leaseClient(proto string, m int) *apps.Script {
	k := scriptKey{proto: proto, exch: m}
	tmpl, ok := c.clients[k]
	if !ok {
		tmpl = eval.SessionFor(c.plan.country, proto, true).KeepAlive(m, c.wl.RequestGap).Client()
		c.clients[k] = tmpl
	}
	s := c.scripts.Lease(tmpl)
	s.CloseAtEnd = true
	return s
}

// pullArm picks the portfolio arm serving one connection attempt — the
// bandit's choice with Selection on, arm 0 without — and pins its engine to
// the client's address, so the router delivers it when the SYN+ACK opens
// the flow. Returns -1 (and touches nothing) when the cell has no portfolio
// or the client is unprotected; the router's §8 prefix routes then apply.
// Safe against concurrent wave-mates: each slot address has at most one
// un-opened flow at a time, and opened flows cache their engine, so re-pins
// never switch a strategy mid-connection.
func (c *cell) pullArm(cn *connPlan) int {
	if c.armLease == nil || cn.unprotected {
		return -1
	}
	arm := 0
	if c.selCell != nil {
		arm = c.selCell.Next(c.plan.country, cn.protocol, c.selRng)
	}
	c.lease.Router.PinClient(clientAddr(c.plan.country, cn.slot, false), c.armLease.Engines[arm])
	return arm
}

// finish closes the cell out: stamp plans and censor totals into the
// result, and hand the leased router, engines and rngs back. The result's
// connection slice stays the cell's: Run reads it before it puts the cell
// back in its pool, and the next reset reuses it.
func (c *cell) finish() cellResult {
	for i := range c.res.conns {
		c.res.conns[i].plan = c.plan.conns[i]
	}
	if c.cen != nil {
		c.res.censorEvents = c.cen.CensoredCount()
	}
	eval.ReleaseDeploymentRouter(c.lease)
	eval.ReleasePortfolioEngines(c.armLease)
	c.lease, c.armLease, c.selCell, c.selRng = nil, nil, nil, nil
	c.rngs.Release()
	return c.res
}
