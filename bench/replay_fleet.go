package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"time"

	"geneva"
	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/obs"
	"geneva/internal/selector"
	"geneva/internal/tcpstack"
)

// The fleet replay re-drives a Deployment through the same public calls
// fleet.Run makes — plan, cell wiring, wave lockstep with the residual
// ledger and selector barriers, reconnects — but sequentially, cell by cell,
// so that spans can be put around each layer call. It takes its seed
// streams from the program's Result.Manifest and must reproduce the
// program's outcome counts exactly; any difference is reported as
// trace.replay_served_delta.

// spanSampleEvery keeps the raw spans of about one cell (or trial) in this
// many.
const spanSampleEvery = 64

// fleetReplay is one replay of a Deployment.
type fleetReplay struct {
	d     geneva.Deployment
	t     *tracer
	seeds obs.SeedSchedule

	portfolio selector.Portfolio
	state     *selector.State // nil unless the deployment selects strategies

	// rngFree recycles generators the way the program's cell rng pool does:
	// a reseeded generator's stream equals a fresh one's.
	rngFree []*rand.Rand

	stats replayStats
}

type rconn struct {
	global, wave, slot int
	unprotected        bool
	protocol           string
}

type rplan struct {
	index   int
	country string
	conns   []rconn
}

type rconnResult struct {
	success, established bool
	attempts             int
	planned, served      int
}

type scriptKey struct {
	proto string
	exch  int
}

// leased is a script with the App the stack is handed for it.
type leased struct {
	s   *apps.Script
	app tcpstack.App
}

type portedLease struct {
	port uint16
	l    leased
}

type rinflight struct {
	idx       int
	l         leased
	exchanges int
	arm       int
}

type rcell struct {
	r    *fleetReplay
	plan rplan
	ids  connIndex

	server    *tcpstack.Endpoint
	slots     map[int]*tcpstack.Endpoint
	sessions  map[string]*apps.Session
	base      map[string]*apps.Session
	tails     map[scriptKey]*apps.Session
	factories map[uint16]func(*tcpstack.Conn) tcpstack.App
	net       *netsim.Network
	cen       eval.CensorCounter
	resid     censor.ResidualCarrier
	shifter   censor.ParamShifter
	shifted   bool
	lease     *eval.RouterLease
	armLease  *eval.PortfolioLease
	selCell   *selector.Cell
	selRng    *rand.Rand
	rngs      []*rand.Rand

	byWave  [][]int
	res     []rconnResult
	started bool

	clientFree map[scriptKey][]leased
	serverFree map[uint16][]leased
	serverLive []portedLease
	live       []rinflight
}

// checkManifest confirms the program ran the Deployment as written: the
// benchmark sets every field the program would otherwise default, so the
// replay resolves nothing itself.
func checkManifest(d geneva.Deployment, m obs.Manifest) error {
	want := map[string]string{
		"connections":          strconv.Itoa(d.Connections),
		"clients_per_cell":     strconv.Itoa(d.ClientsPerCell),
		"waves_per_cell":       strconv.Itoa(d.WavesPerCell),
		"unprotected_per_cell": strconv.Itoa(d.UnprotectedPerCell),
		"wave_gap":             d.WaveGap.String(),
		"session_requests":     strconv.Itoa(d.SessionRequests),
		"request_gap":          d.RequestGap.String(),
	}
	for k, v := range want {
		if m.Config[k] != v {
			return fmt.Errorf("manifest %s = %q, the benchmark asked for %q", k, m.Config[k], v)
		}
	}
	return nil
}

// replayFleet replays d, whose program result is ref, under tracer t (nil
// for the untraced replay).
func replayFleet(d geneva.Deployment, ref geneva.FleetResult, t *tracer) (replayStats, error) {
	if err := checkManifest(d, ref.Manifest); err != nil {
		return replayStats{}, err
	}
	if !d.Portfolio.IsZero() && !d.Selection.Enabled() || netsim.Symmetric(d.Impairments).Enabled() {
		return replayStats{}, fmt.Errorf("the replay covers registry-pinned and selected strategies on lossless links only")
	}
	r := &fleetReplay{d: d, t: t, seeds: ref.Manifest.Seeds}
	if d.Selection.Enabled() {
		r.portfolio = d.Portfolio
		if r.portfolio.IsZero() {
			r.portfolio = eval.DefaultPortfolio()
		}
		if ref.Manifest.Config["portfolio"] != r.portfolio.Hash() {
			return replayStats{}, fmt.Errorf("manifest portfolio %q, replay portfolio %q",
				ref.Manifest.Config["portfolio"], r.portfolio.Hash())
		}
		r.state = selector.NewState(d.Selection, r.portfolio.Len())
	}
	r.stats.censored = make([]int, len(censorLabels))

	t.begin(kFleetRun, -1)
	plans := r.plan()
	cells := make([]*rcell, len(plans))
	for i := range plans {
		cells[i] = r.newCell(plans[i])
	}
	var selCells []*selector.Cell
	if r.state != nil {
		selCells = make([]*selector.Cell, len(cells))
		for i, c := range cells {
			selCells[i] = c.selCell
		}
	}
	maxWaves := 0
	for _, c := range cells {
		maxWaves = max(maxWaves, len(c.byWave))
	}
	ledgers := map[string]map[string]time.Duration{}
	for w := 0; w < maxWaves; w++ {
		next := map[string]map[string]time.Duration{}
		for _, c := range cells {
			c.runWave(w, ledgers[c.plan.country], next)
		}
		t.begin(kBarrier, -1)
		ledgers = next
		if r.state != nil {
			t.begin(kSelMerge, -1)
			r.state.Merge(selCells)
			t.end()
		}
		t.end()
	}
	t.begin(kFinish, -1)
	for _, c := range cells {
		c.finish()
	}
	if r.state != nil {
		r.stats.fallbacks = int(r.state.Fallbacks())
	}
	t.end()
	t.end()

	r.stats.ops = r.stats.conns
	r.stats.delta = r.stats.fleetDelta(ref)
	return r.stats, nil
}

// plan partitions the deployment into cells exactly as the program does.
func (r *fleetReplay) plan() []rplan {
	d := r.d
	var cells []rplan
	global := 0
	base := d.Connections / len(d.Countries)
	extra := d.Connections % len(d.Countries)
	for ci, country := range d.Countries {
		quota := base
		if ci < extra {
			quota++
		}
		for quota > 0 {
			cell := rplan{index: len(cells), country: country}
			for w := 0; w < d.WavesPerCell && quota > 0; w++ {
				for s := 0; s < d.ClientsPerCell && quota > 0; s++ {
					cell.conns = append(cell.conns, rconn{global: global, wave: w, slot: s,
						protocol: d.Protocols[global%len(d.Protocols)]})
					global++
					quota--
				}
				if w%2 == 1 {
					for u := 0; u < d.UnprotectedPerCell && quota > 0; u++ {
						cell.conns = append(cell.conns, rconn{global: global, wave: w,
							slot: d.ClientsPerCell + u, unprotected: true,
							protocol: d.Protocols[global%len(d.Protocols)]})
						global++
						quota--
					}
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// clientAddr places a cell's client endpoints the way the program does.
func clientAddr(country string, slot int, unprotected bool) netip.Addr {
	if unprotected {
		return netip.AddrFrom4([4]byte{172, 16, 0, byte(2 + slot)})
	}
	p, ok := eval.RouterPrefixes[country]
	if !ok {
		return netip.AddrFrom4([4]byte{198, 18, 0, byte(2 + slot)})
	}
	a := p.Addr().As4()
	a[3] = byte(2 + slot)
	return netip.AddrFrom4(a)
}

// stream returns a seed stream's offset from the manifest.
func (r *fleetReplay) stream(name string) int64 {
	off, ok := r.seeds.Streams[name]
	if !ok {
		panic("bench: manifest has no seed stream " + name)
	}
	return off
}

// rng takes a generator seeded at seed, recycling the way the program's
// pool does.
func (c *rcell) rng(seed int64) *rand.Rand {
	r := c.r
	r.t.begin(kRNG, -1)
	var g *rand.Rand
	if n := len(r.rngFree); n > 0 {
		g = r.rngFree[n-1]
		r.rngFree = r.rngFree[:n-1]
	} else {
		g = rand.New(rand.NewSource(0))
	}
	g.Seed(seed)
	r.t.end()
	c.rngs = append(c.rngs, g)
	return g
}

func (r *fleetReplay) newCell(cp rplan) *rcell {
	t := r.t
	c := &rcell{r: r, plan: cp}
	if t != nil && sampled(r.d.Seed, cp.index, spanSampleEvery) {
		c.ids = connIndex{}
	}
	t.setSampling(c.ids != nil)
	defer t.setSampling(false)
	t.begin(kCellSetup, -1)
	defer t.end()
	cellSeed := r.seeds.Base + int64(cp.index)*r.seeds.TrialStep

	c.server = tcpstack.NewEndpoint(eval.ServerAddr, tcpstack.DefaultServer, c.rng(cellSeed+r.stream("server")))
	t.begin(kStrategy, -1)
	c.lease = eval.AcquireDeploymentRouter(cellSeed + r.stream("router"))
	t.end()
	c.server.Outbound = outboundFor(t, c.ids, c.lease.Router.Outbound)
	c.server.ReleaseClosed = true

	if _, routed := eval.RouterPrefixes[cp.country]; r.state != nil && routed {
		t.begin(kStrategy, -1)
		c.armLease = eval.AcquirePortfolioEngines(r.portfolio, cellSeed)
		t.end()
		c.selCell = r.state.NewCell()
		c.selRng = c.rng(cellSeed + r.stream("selector"))
	}

	c.sessions = map[string]*apps.Session{}
	c.base = map[string]*apps.Session{}
	c.factories = map[uint16]func(*tcpstack.Conn) tcpstack.App{}
	for _, cn := range cp.conns {
		if _, ok := c.sessions[cn.protocol]; ok {
			continue
		}
		sess := eval.SessionFor(cp.country, cn.protocol, true)
		c.base[cn.protocol] = sess
		if r.d.SessionRequests > 1 {
			sess = sess.KeepAlive(r.d.SessionRequests, r.d.RequestGap)
		}
		c.sessions[cn.protocol] = sess
		c.factories[sess.Port] = sess.ServerFactory()
		c.server.Listen(sess.Port)
	}
	c.clientFree = make(map[scriptKey][]leased, len(c.sessions))
	c.serverFree = make(map[uint16][]leased, len(c.sessions))
	c.server.NewServerApp = func(conn *tcpstack.Conn) tcpstack.App {
		port := conn.Flow().SrcPort
		if l := c.serverFree[port]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = leased{}
			c.serverFree[port] = l[:len(l)-1]
			s.s.Restart()
			c.serverLive = append(c.serverLive, portedLease{port: port, l: s})
			return s.app
		}
		s := c.factories[port](conn).(*apps.Script)
		s.CloseAtEnd = true
		l := leased{s: s, app: appFor(t, c.ids, s)}
		c.serverLive = append(c.serverLive, portedLease{port: port, l: l})
		return l.app
	}

	c.slots = map[int]*tcpstack.Endpoint{}
	var hosts []netsim.Host
	for _, cn := range cp.conns {
		if _, ok := c.slots[cn.slot]; ok {
			continue
		}
		ep := tcpstack.NewEndpoint(clientAddr(cp.country, cn.slot, cn.unprotected),
			tcpstack.DefaultClient, c.rng(cellSeed+r.stream("clients")+int64(cn.slot)))
		ep.ReleaseClosed = true
		c.slots[cn.slot] = ep
		hosts = append(hosts, hostFor(t, c.ids, ep))
	}

	c.cen = eval.NewCensor(cp.country, censor.Default(), c.rng(cellSeed+r.stream("censor")))
	c.resid, _ = c.cen.(censor.ResidualCarrier)
	c.shifter, _ = c.cen.(censor.ParamShifter)
	if c.cen != nil {
		c.net = netsim.NewMulti(c.server, hosts, boxFor(t, c.ids, cp.country, c.cen))
	} else {
		c.net = netsim.NewMulti(c.server, hosts)
	}
	c.net.RecyclePackets = true
	c.server.Attach(c.net)
	for _, ep := range c.slots {
		ep.Attach(c.net)
	}

	waves := 0
	for _, cn := range cp.conns {
		waves = max(waves, cn.wave+1)
	}
	c.byWave = make([][]int, waves)
	for i, cn := range cp.conns {
		c.byWave[cn.wave] = append(c.byWave[cn.wave], i)
	}
	c.res = make([]rconnResult, len(cp.conns))
	return c
}

// drain runs the cell network until no event is pending.
func (c *rcell) drain() {
	for !c.net.Quiet() {
		c.r.t.begin(kNetRun, -1)
		c.r.stats.events += int64(c.net.Run(0))
		c.r.t.end()
	}
}

func (c *rcell) sessionFor(proto string, m int) *apps.Session {
	full := c.sessions[proto]
	if m >= full.Exchanges() {
		return full
	}
	if m <= 1 {
		return c.base[proto]
	}
	k := scriptKey{proto: proto, exch: m}
	if s, ok := c.tails[k]; ok {
		return s
	}
	s := c.base[proto].KeepAlive(m, c.r.d.RequestGap)
	if c.tails == nil {
		c.tails = map[scriptKey]*apps.Session{}
	}
	c.tails[k] = s
	return s
}

func (c *rcell) clientScript(sess *apps.Session, key scriptKey) leased {
	if l := c.clientFree[key]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = leased{}
		c.clientFree[key] = l[:len(l)-1]
		s.s.Restart()
		return s
	}
	s := sess.NewClient()
	s.CloseAtEnd = true
	return leased{s: s, app: appFor(c.r.t, c.ids, s)}
}

// connect opens a connection attempt for plan entry idx.
func (c *rcell) connect(idx int, port uint16, l leased) {
	cn := &c.plan.conns[idx]
	c.r.t.begin(kConnect, c.connID(idx))
	conn := c.slots[cn.slot].Connect(eval.ServerAddr, port, l.app)
	c.ids.note(conn, cn.global)
	c.r.t.end()
}

func (c *rcell) connID(idx int) int {
	if c.ids == nil {
		return -1
	}
	return c.plan.conns[idx].global
}

func (c *rcell) pullArm(idx int) int {
	cn := &c.plan.conns[idx]
	if c.selCell == nil || cn.unprotected {
		return -1
	}
	c.r.t.begin(kSelNext, c.connID(idx))
	arm := c.selCell.Next(c.plan.country, cn.protocol, c.selRng)
	c.r.t.end()
	c.lease.Router.PinClient(clientAddr(c.plan.country, cn.slot, false), c.armLease.Engines[arm])
	return arm
}

func (c *rcell) observe(idx, arm int, o selector.Outcome) {
	cn := &c.plan.conns[idx]
	c.r.t.begin(kSelObserve, c.connID(idx))
	c.selCell.Observe(c.plan.country, cn.protocol, arm, o)
	c.r.t.end()
}

// runWave mirrors the program's wave: gap, shift, ledger seeding, connect,
// drain and reconnect until settled, then ledger export into next.
func (c *rcell) runWave(w int, ledger map[string]time.Duration, next map[string]map[string]time.Duration) {
	if w >= len(c.byWave) {
		return
	}
	r, t, d := c.r, c.r.t, c.r.d
	t.setSampling(c.ids != nil)
	defer t.setSampling(false)
	t.begin(kWave, -1)
	defer t.end()
	if c.started {
		c.net.Clock.Advance(d.WaveGap)
	}
	c.started = true

	if !c.shifted && d.Shift.Enabled() && w >= d.Shift.AtWave &&
		(d.Shift.Country == "" || d.Shift.Country == c.plan.country) {
		c.shifted = true
		if c.shifter != nil {
			c.shifter.ShiftParams(d.Shift.Params)
		}
	}

	if c.resid != nil && len(ledger) > 0 {
		t.begin(kLedger, -1)
		now := c.net.Clock.Now()
		for key, remaining := range ledger {
			if remaining <= d.WaveGap {
				continue
			}
			c.resid.SeedResidual(key, now+remaining-d.WaveGap)
			r.stats.ledgerSeeded++
		}
		t.end()
	}

	pol := d.Reconnect
	live := c.live[:0]
	for _, idx := range c.byWave[w] {
		cn := &c.plan.conns[idx]
		sess := c.sessions[cn.protocol]
		m := sess.Exchanges()
		res := &c.res[idx]
		res.planned = m
		l := c.clientScript(sess, scriptKey{proto: cn.protocol, exch: m})
		arm := c.pullArm(idx)
		c.connect(idx, sess.Port, l)
		res.attempts++
		live = append(live, rinflight{idx: idx, l: l, exchanges: m, arm: arm})
	}
	for len(live) > 0 {
		c.drain()
		n := 0
		for _, f := range live {
			res := &c.res[f.idx]
			cn := &c.plan.conns[f.idx]
			app := f.l.s
			if f.arm >= 0 {
				switch {
				case app.Succeeded():
					c.observe(f.idx, f.arm, selector.Served)
				case app.Established():
					c.observe(f.idx, f.arm, selector.TornDown)
				default:
					c.observe(f.idx, f.arm, selector.Unestablished)
				}
			}
			res.established = res.established || app.Established()
			res.served += app.Served()
			budget := eval.TriesFor(cn.protocol)
			if pol.MaxAttempts > 0 {
				budget = pol.MaxAttempts
			}
			retryable := app.Reset() || (pol.RetryAll && !app.Succeeded())
			if !app.Succeeded() && retryable && res.attempts < budget {
				remaining := max(res.planned-res.served, 1)
				sess := c.sessionFor(cn.protocol, remaining)
				l := c.clientScript(sess, scriptKey{proto: cn.protocol, exch: sess.Exchanges()})
				arm := c.pullArm(f.idx)
				res.attempts++
				if pol.Backoff > 0 {
					idx, port := f.idx, sess.Port
					c.net.After(pol.Backoff, func() { c.connect(idx, port, l) })
				} else {
					c.connect(f.idx, sess.Port, l)
				}
				live[n] = rinflight{idx: f.idx, l: l, exchanges: sess.Exchanges(), arm: arm}
				n++
			} else {
				res.success = res.served >= res.planned
			}
			c.clientFree[scriptKey{proto: cn.protocol, exch: f.exchanges}] = append(
				c.clientFree[scriptKey{proto: cn.protocol, exch: f.exchanges}], f.l)
		}
		live = live[:n]
	}
	c.live = live[:0]

	for i, ps := range c.serverLive {
		c.serverFree[ps.port] = append(c.serverFree[ps.port], ps.l)
		c.serverLive[i] = portedLease{}
	}
	c.serverLive = c.serverLive[:0]

	if c.resid != nil {
		t.begin(kLedger, -1)
		led := next[c.plan.country]
		if led == nil {
			led = map[string]time.Duration{}
			next[c.plan.country] = led
		}
		c.resid.ExportResidual(c.net.Clock.Now(), func(key string, remaining time.Duration) {
			if cur, ok := led[key]; !ok || remaining > cur {
				led[key] = remaining
			}
		})
		t.end()
	}
}

// finish tallies the cell's outcome and hands pooled state back.
func (c *rcell) finish() {
	r := c.r
	st := &r.stats
	cs := st.country(c.plan.country)
	if c.cen != nil {
		ev := c.cen.CensoredCount()
		cs.censorEvents += ev
		st.censored[censorKind(c.plan.country)-kCensor] += ev
	}
	for _, res := range c.res {
		st.conns++
		st.attempts += res.attempts
		st.requestsServed += res.served
		cs.conns++
		cs.requestsServed += res.served
		if res.success {
			st.served++
			cs.served++
		} else if res.established {
			st.tornDown++
		}
	}
	eval.ReleaseDeploymentRouter(c.lease)
	eval.ReleasePortfolioEngines(c.armLease)
	r.rngFree = append(r.rngFree, c.rngs...)
	*c = rcell{}
}
