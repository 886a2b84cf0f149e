package fleet

import (
	"math/rand"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/eval"
	"geneva/internal/netsim"
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

// cell is one wired cell network, alive from construction to the end of its
// last wave so the scheduler can drive all cells in wave lockstep.
// Everything in a cell runs on a single goroutine per wave against the
// cell's own virtual clock; only its residual exports leave it.
type cell struct {
	wl   Workload
	plan cellPlan

	server   *tcpstack.Endpoint
	slots    map[int]*tcpstack.Endpoint
	sessions map[string]*apps.Session // full-length session per protocol
	net      *netsim.Network
	cen      eval.CensorCounter
	resid    censor.ResidualCarrier // non-nil iff the censor shares residual state
	shifter  censor.ParamShifter    // non-nil iff the censor can shift mid-run
	shifted  bool
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

	byWave  [][]int // wave -> indices into plan.conns (contiguous from 0)
	res     cellResult
	started bool

	// Every script the cell runs is a copy of a template leased from
	// scripts: client templates by shape, server templates by port. The
	// templates are read-only (a full session's are SessionFor's cached
	// scripts, shared across goroutines), so only the copies are ever run
	// or modified. A copy goes back once its connection can no longer
	// receive a packet: a client's when its attempt settles, a server's
	// (listed in serverLive) at wave end.
	clients    map[scriptKey]*apps.Script
	servers    map[uint16]*apps.Script
	scripts    apps.Scripts
	serverLive []*apps.Script
	live       []inflight
}

// newCell wires one cell — server + pooled deployment router, censor,
// clients — without running anything. The construction order (and thus
// every rng draw) is exactly the plan order, never scheduling order.
func newCell(wl Workload, cp cellPlan, ctl control) *cell {
	c := &cell{wl: wl, plan: cp}
	cellSeed := wl.Seed + int64(cp.index)*cellSeedStride

	c.server = tcpstack.NewEndpoint(eval.ServerAddr, tcpstack.DefaultServer, c.rngs.Acquire(cellSeed+seedServer))
	c.lease = eval.AcquireDeploymentRouter(cellSeed + seedRouter)
	c.server.Outbound = c.lease.Router.Outbound
	c.server.ReleaseClosed = true

	// Portfolio delivery: routed countries get one engine per arm, seeded
	// per cell at cellSeed + eval.SeedArmBase + arm, and pullArm pins an
	// arm to the client's address per attempt. Unrouted countries (the
	// uncensored population) keep matching no route — the server doesn't
	// know them, selected or not.
	if _, routed := eval.RouterPrefixes[cp.country]; routed && !ctl.portfolio.IsZero() {
		c.armLease = eval.AcquirePortfolioEngines(ctl.portfolio, cellSeed)
		if ctl.state != nil {
			c.selCell = ctl.state.NewCell()
			c.selRng = c.rngs.Acquire(cellSeed + seedSelector)
		}
	}

	// One forbidden session per protocol in the cell; the server listens on
	// every port and dispatches the matching application by the port the
	// client connected to. Fleet scripts close after their transcripts
	// (CloseAtEnd) so both sides' connections finish and recycle — without
	// that, a 10^5-connection run accretes every connection ever served in
	// the server's table.
	c.sessions = map[string]*apps.Session{}
	c.clients = map[scriptKey]*apps.Script{}
	c.servers = map[uint16]*apps.Script{}
	for _, cn := range cp.conns {
		if _, ok := c.sessions[cn.protocol]; ok {
			continue
		}
		sess := eval.SessionFor(cp.country, cn.protocol, true)
		if wl.SessionRequests > 1 {
			// Extend the one-shot session into a keep-alive one. Protocols
			// whose transcript isn't a single exchange come back unchanged
			// and keep running one-shot. The server template answers each
			// request as it arrives, so the same listener also serves
			// shorter reconnect tails.
			sess = sess.KeepAlive(wl.SessionRequests, wl.RequestGap)
		}
		c.sessions[cn.protocol] = sess
		c.clients[scriptKey{proto: cn.protocol, exch: sess.Exchanges()}] = sess.Client()
		c.servers[sess.Port] = sess.Server()
		c.server.Listen(sess.Port)
	}
	c.server.NewServerApp = func(conn *tcpstack.Conn) tcpstack.App {
		s := c.scripts.Lease(c.servers[conn.Flow().SrcPort])
		s.CloseAtEnd = true
		c.serverLive = append(c.serverLive, s)
		return s
	}

	// Client endpoints, one per slot the plan uses.
	c.slots = map[int]*tcpstack.Endpoint{}
	var hosts []netsim.Host
	for _, cn := range cp.conns {
		if _, ok := c.slots[cn.slot]; ok {
			continue
		}
		ep := tcpstack.NewEndpoint(clientAddr(cp.country, cn.slot, cn.unprotected),
			tcpstack.DefaultClient, c.rngs.Acquire(cellSeed+seedClients+int64(cn.slot)))
		ep.ReleaseClosed = true
		c.slots[cn.slot] = ep
		hosts = append(hosts, ep)
	}

	c.cen = eval.NewCensor(cp.country, censor.Default(), c.rngs.Acquire(cellSeed+seedCensor))
	c.resid, _ = c.cen.(censor.ResidualCarrier)
	if c.resid != nil {
		c.exports = residualLedger{}
	}
	c.shifter, _ = c.cen.(censor.ParamShifter)
	if c.cen != nil {
		c.net = netsim.NewMulti(c.server, hosts, c.cen)
	} else {
		c.net = netsim.NewMulti(c.server, hosts)
	}
	c.net.RecyclePackets = true
	if im := netsim.Symmetric(wl.Impairments); im.Enabled() {
		c.net.SetImpairments(im, c.rngs.Acquire(cellSeed+seedImpairments))
		c.server.Retransmit = true
		for _, ep := range c.slots {
			ep.Retransmit = true
		}
	}
	c.server.Attach(c.net)
	for _, ep := range c.slots {
		ep.Attach(c.net)
	}

	// Waves are assigned contiguously from 0 by plan, so the per-wave
	// index lists slot straight into a slice.
	waves := 0
	for _, cn := range cp.conns {
		if cn.wave+1 > waves {
			waves = cn.wave + 1
		}
	}
	c.byWave = make([][]int, waves)
	for i, cn := range cp.conns {
		c.byWave[cn.wave] = append(c.byWave[cn.wave], i)
	}
	c.res = cellResult{country: cp.country, conns: make([]connResult, len(cp.conns))}
	return c
}

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
// result, and hand the pooled router and rngs back.
func (c *cell) finish() cellResult {
	for i := range c.res.conns {
		c.res.conns[i].plan = c.plan.conns[i]
	}
	if c.cen != nil {
		c.res.censorEvents = c.cen.CensoredCount()
	}
	eval.ReleaseDeploymentRouter(c.lease)
	c.lease = nil
	eval.ReleasePortfolioEngines(c.armLease)
	c.armLease, c.selCell, c.selRng = nil, nil, nil
	c.rngs.Release()
	c.server, c.slots, c.net, c.cen, c.resid, c.exports = nil, nil, nil, nil, nil, nil
	return c.res
}
