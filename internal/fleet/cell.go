package fleet

import (
	"math/rand"
	"net/netip"
	"runtime"
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

// cellPools holds the idle cells of each key on a stack. takeCells pops a
// run's cells in plan order and putCells pushes them back in reverse, so a
// rerun of a workload gives each plan the cell that served it last time,
// whose buffers already fit it. (A sync.Pool hands cells out as the
// scheduler happens to ask, so each rerun met cells with plans they had not
// served, and their buffers kept growing for dozens of reruns.) Like a
// sync.Pool, the pools let idle cells go: a collection drops every stack
// that no run has taken from or put to since the collection before it.
var cellPools struct {
	sync.Mutex
	m map[cellKey]*cellStack
}

// cellStack is one key's idle cells, the next one to take on top.
type cellStack struct {
	idle []*cell
	used bool // taken from or put to since the last collection
}

func init() { sweepAfterCollection() }

// gcSentinel is garbage from the moment it is made; its finalizer runs
// after the collection that finds it.
type gcSentinel struct{ _ *byte }

// sweepAfterCollection runs sweepCellPools after the next collection, and
// again after every one after that.
func sweepAfterCollection() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		sweepCellPools()
		sweepAfterCollection()
	})
}

// sweepCellPools drops the stacks left idle since the last sweep and marks
// the others idle.
func sweepCellPools() {
	cellPools.Lock()
	defer cellPools.Unlock()
	// order: each stack is kept or dropped on its own flag.
	for k, st := range cellPools.m {
		if !st.used {
			delete(cellPools.m, k)
		}
		st.used = false
	}
}

// takeCells takes a cell for each plan, in plan order: the top of the
// plan's key's stack, or an empty cell. It wires none of them.
func takeCells(wl Workload, plans []cellPlan) []*cell {
	cellPools.Lock()
	defer cellPools.Unlock()
	cells := make([]*cell, len(plans))
	for i, cp := range plans {
		st := cellPools.m[keyOf(wl, cp.country)]
		if st == nil || len(st.idle) == 0 {
			cells[i] = new(cell)
			continue
		}
		n := len(st.idle) - 1
		cells[i], st.idle[n] = st.idle[n], nil
		st.idle, st.used = st.idle[:n], true
	}
	return cells
}

// putCells puts cells, taken by takeCells for wl, back on their keys'
// stacks in reverse, so the next takeCells of the same plans takes them in
// the same order.
func putCells(wl Workload, cells []*cell) {
	cellPools.Lock()
	defer cellPools.Unlock()
	if cellPools.m == nil {
		cellPools.m = map[cellKey]*cellStack{}
	}
	for i := len(cells) - 1; i >= 0; i-- {
		c := cells[i]
		k := keyOf(wl, c.plan.country)
		st := cellPools.m[k]
		if st == nil {
			st = new(cellStack)
			cellPools.m[k] = st
		}
		st.idle, st.used = append(st.idle, c), true
	}
}

// cell is one wired cell network, taken from its key's pool for one run:
// an eval.Sandbox with a slot per client, whose server serves the
// country's arms, one engine each, pinned per attempt by pullArm. newCells
// wires it, it stays alive to the end of its last wave so the
// scheduler can drive all cells in wave lockstep, and Run puts it back once
// the run's result is aggregated. Everything in a cell runs on a single
// goroutine per wave against the cell's own virtual clock; only its
// residual exports leave it.
type cell struct {
	eval.Sandbox
	wl   Workload
	plan cellPlan

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
	// folds and clears it. publish is exportResidual bound to the cell.
	exports residualLedger
	publish func(key string, remaining time.Duration)

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

// newCells wires a cell for each plan — server and strategies, censor,
// clients — without running anything: a pooled cell of the plan's key, or
// an empty one, reset for the plan on up to workers goroutines.
func newCells(wl Workload, plans []cellPlan, ctl control, workers int) []*cell {
	cells := takeCells(wl, plans)
	eval.RunParallel(workers, len(cells), func(i int) {
		cells[i].reset(wl, plans[i], ctl)
	})
	return cells
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
		c.publish = c.exportResidual
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
