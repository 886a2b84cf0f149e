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

// cellKey is what a cell's censor and templates are built from: the
// country picks the censor and every session, and SessionRequests and
// RequestGap extend each session. A cell keeps its censor and templates
// from run to run and stamps the key they were built for; a run of
// another key rebuilds them.
type cellKey struct {
	country  string
	requests int
	gap      time.Duration
}

// cellPools holds the idle cells on one stack, the next one to take on
// top. takeCells pops a run's cells in plan order and putCells pushes them
// back in reverse, so a rerun of a workload gives each plan the cell that
// served it last time, whose key stamp and buffers already fit it. (A
// sync.Pool hands cells out as the scheduler happens to ask, so each rerun
// met cells with plans they had not served, and their buffers kept growing
// for dozens of reruns.) Like a sync.Pool, the stack lets idle cells go: a
// collection drops it if no run has taken from or put to it since the
// collection before it.
var cellPools struct {
	sync.Mutex
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

// sweepCellPools drops the stack if it was left idle since the last sweep
// and marks it idle.
func sweepCellPools() {
	cellPools.Lock()
	defer cellPools.Unlock()
	if !cellPools.used {
		cellPools.idle = nil
	}
	cellPools.used = false
}

// takeCells takes n cells, one for each plan in plan order: the top of
// the stack, or an empty cell. It wires none of them.
func takeCells(n int) []*cell {
	cellPools.Lock()
	defer cellPools.Unlock()
	cells := make([]*cell, n)
	for i := range cells {
		top := len(cellPools.idle) - 1
		if top < 0 {
			cells[i] = new(cell)
			continue
		}
		cells[i], cellPools.idle[top] = cellPools.idle[top], nil
		cellPools.idle = cellPools.idle[:top]
	}
	cellPools.used = true
	return cells
}

// putCells pushes cells, taken by takeCells, back on the stack in
// reverse, so the next takeCells of as many plans takes them in the same
// order.
func putCells(cells []*cell) {
	cellPools.Lock()
	defer cellPools.Unlock()
	for i := len(cells) - 1; i >= 0; i-- {
		cellPools.idle = append(cellPools.idle, cells[i])
	}
	cellPools.used = true
}

// cell is one wired cell network, taken from the pool for one run:
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
	key  cellKey // the key sessions were built for

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

	// exports lists the residual windows the cell published in the
	// current wave, in order; the barrier folds and empties it. publish is
	// exportResidual bound to the cell.
	exports []residualExport
	publish func(key string, remaining time.Duration)

	res cellResult

	// Every script the cell runs is a copy of a read-only template leased
	// from the sandbox's Scripts: a session's client template, cut to the
	// exchanges its attempt owes, or a server template (registered with
	// Serve) by port. The client templates are SessionFor's cached
	// scripts, shared across goroutines. A copy goes back once its
	// connection can no longer receive a packet: a client's when its
	// attempt settles, a server's at wave end.
	live []inflight
}

// newCells wires a cell for each plan — server and strategies, censor,
// clients — without running anything: a pooled cell or an empty one,
// reset for the plan on up to workers goroutines.
func newCells(wl Workload, plans []cellPlan, ctl control, workers int) []*cell {
	cells := takeCells(len(plans))
	eval.RunParallel(workers, len(cells), func(i int) {
		cells[i].reset(wl, plans[i], ctl)
	})
	return cells
}

// reset wires c for cp, in place, through the sandbox's Reset: the only
// path that wires a cell, so a pooled cell is in exactly the state an
// empty one reaches. The sandbox drops its pins and keeps each arm's
// engine while the arm's strategy prints the same, the sessions stay
// while the cell's key does, and every freelist keeps its capacity. Each
// stream is seeded from the cell's plan index, so the order of the draws
// is the plan's, never the scheduler's.
func (c *cell) reset(wl Workload, cp cellPlan, ctl control) {
	if c.sessions == nil {
		c.sessions = map[string]*apps.Session{}
		c.publish = c.exportResidual
	}
	if k := (cellKey{cp.country, wl.SessionRequests, wl.RequestGap}); k != c.key {
		clear(c.sessions)
		c.key = k
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
	// Reset rebuilds the censor for a new country and undoes a Shift.
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
// of proto: a copy of the session's client template cut to its first m
// exchanges. A reconnecting client owes a prefix of its session's script,
// since every exchange repeats the same request and response.
func (c *cell) leaseClient(proto string, m int) *apps.Script {
	s := c.Scripts.Lease(c.sessions[proto].Client())
	s.CutTo(m)
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
