package fleet

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

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
// an eval.Sandbox with a slot per client, whose server serves the
// country's arms, one engine each, pinned per attempt by pullArm. newCell
// wires it, it stays alive to the end of its last wave so the
// scheduler can drive all cells in wave lockstep, and Run puts it back once
// the run's result is aggregated. Everything in a cell runs on a single
// goroutine per wave against the cell's own virtual clock; only its
// residual exports leave it.
type cell struct {
	eval.Sandbox
	wl   Workload
	plan cellPlan
	home *sync.Pool // the pool of the cell's key

	addrs    []netip.Addr             // the plan's slot addresses
	sessions map[string]*apps.Session // full-length session per protocol
	resid    censor.ResidualCarrier   // non-nil iff the censor shares residual state
	shifter  censor.ParamShifter      // non-nil iff the censor can shift mid-run

	// arms is the number of strategies the country's cells serve (none
	// for the uncensored population). selCell is nil unless Selection is
	// on and the country is routed.
	arms    int
	selCell *selector.Cell
	selRng  *rand.Rand

	// exports holds the residual windows the cell published in the current
	// wave (nil when its censor shares no residual state); the barrier
	// folds and clears it.
	exports residualLedger

	res cellResult

	// Every script the cell runs is a copy of a read-only template leased
	// from the sandbox's Scripts: client templates by shape, server
	// templates (registered with Serve) by port. A full session's client
	// templates are SessionFor's cached scripts, shared across goroutines.
	// A copy goes back once its connection can no longer receive a packet:
	// a client's when its attempt settles, a server's at wave end. The
	// templates depend only on the cell's key, so a pooled cell keeps them.
	clients map[scriptKey]*apps.Script
	live    []inflight
}

// newCell wires one cell — server and strategies, censor, clients — without
// running anything: a pooled cell of the plan's key, or an empty one,
// reset for cp.
func newCell(wl Workload, cp cellPlan, ctl control) *cell {
	home := cellPool(keyOf(wl, cp.country))
	c := home.Get().(*cell)
	c.home = home
	c.reset(wl, cp, ctl)
	return c
}

// reset wires c for cp, in place, through the sandbox's Reset: the only
// path that wires a cell, so a pooled cell is in exactly the state an
// empty one reaches. The sandbox drops its pins and keeps each arm's
// engine while the arm's strategy prints the same, the template maps keep
// what earlier runs of the key built, and every freelist keeps its
// capacity. Each stream is seeded from the cell's plan index, so the order
// of the draws is the plan's, never the scheduler's.
func (c *cell) reset(wl Workload, cp cellPlan, ctl control) {
	if c.sessions == nil {
		c.sessions = map[string]*apps.Session{}
		c.clients = map[scriptKey]*apps.Script{}
	}
	c.wl, c.plan = wl, cp
	cellSeed := wl.Seed + int64(cp.index)*cellSeedStride

	set := ctl.arms[cp.country]
	c.arms = len(set.strats)
	c.selCell = nil
	if ctl.state != nil && c.arms > 0 {
		c.selCell = ctl.state.NewCell()
		c.selRng = eval.Reseed(c.selRng, cellSeed+seedSelector)
	}

	// One client slot per slot the plan uses.
	c.addrs = c.addrs[:0]
	for s := range c.slots() {
		c.addrs = append(c.addrs, clientAddr(cp.country, s, s >= wl.ClientsPerCell))
	}
	// The pool key holds the country, so a pooled cell's censor is the
	// country's, and Reset undoes a Shift too.
	c.Reset(cp.country, c.addrs, tcpstack.DefaultClient, set.strats, netsim.Symmetric(wl.Impairments), eval.Seeds{
		Server:      cellSeed + seedServer,
		Censor:      cellSeed + seedCensor,
		Impairments: cellSeed + seedImpairments,
		Clients:     cellSeed + seedClients,
		Arms:        cellSeed + set.seed,
	})
	c.Server.ReleaseClosed = true
	for _, ep := range c.Clients[:len(c.addrs)] {
		ep.ReleaseClosed = true
	}
	c.resid, _ = c.Censor.(censor.ResidualCarrier)
	c.shifter, _ = c.Censor.(censor.ParamShifter)
	if c.resid != nil && c.exports == nil {
		c.exports = residualLedger{}
	}

	// One forbidden session per protocol in the cell; the server listens on
	// the port of every protocol the plan runs and dispatches the matching
	// application by the port the client connected to. Fleet scripts close
	// after their transcripts (CloseAtEnd) so both sides' connections
	// finish and recycle — without that, a 10^5-connection run accretes
	// every connection ever served in the server's table. The plan cycles
	// through the protocols, so the first few connections run every one.
	for i := range min(cp.n, len(wl.Protocols)) {
		proto := c.conn(i).protocol
		sess, ok := c.sessions[proto]
		if !ok {
			sess = eval.SessionFor(cp.country, proto, true)
			if wl.SessionRequests > 1 {
				// Extend the one-shot session into a keep-alive one.
				// Protocols whose transcript isn't a single exchange come
				// back unchanged and keep running one-shot. The server
				// template answers each request as it arrives, so the same
				// listener also serves shorter reconnect tails.
				sess = sess.KeepAlive(wl.SessionRequests, wl.RequestGap)
			}
			c.sessions[proto] = sess
			c.clients[scriptKey{proto: proto, exch: sess.Exchanges()}] = sess.Client()
			server := *sess.Server()
			server.CloseAtEnd = true
			c.Serve(sess.Port, &server)
		}
		c.Server.Listen(sess.Port)
	}

	conns := c.res.conns
	if cap(conns) < cp.n {
		conns = make([]connResult, cp.n)
	} else {
		conns = conns[:cp.n]
		clear(conns)
	}
	c.res = cellResult{conns: conns}
}

// drain runs the cell network until no event is pending.
func (c *cell) drain() {
	for !c.Net.Quiet() {
		c.Net.Run(0)
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
	s := c.Scripts.Lease(tmpl)
	s.CloseAtEnd = true
	return s
}

// pullArm picks the arm serving one connection attempt — the bandit's
// choice with Selection on, arm 0 without — and pins it to the client's
// slot. It is the only code that picks a routed client's engine. Returns
// -1 (and touches nothing) when the cell has no arms or the client is
// unprotected; the client's packets then pass through. A re-pin reaches
// every packet the server sends the slot from then on, and it never
// switches a strategy mid-connection: a slot is re-pinned only between
// its own attempts, once the drained network holds none of its packets.
func (c *cell) pullArm(cn connPlan) int {
	if c.arms == 0 || cn.unprotected {
		return -1
	}
	arm := 0
	if c.selCell != nil {
		arm = c.selCell.Next(c.plan.country, cn.protocol, c.selRng)
	}
	c.Pin(cn.slot, arm)
	return arm
}
