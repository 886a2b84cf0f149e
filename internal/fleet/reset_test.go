package fleet

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/selector"
	"geneva/internal/strategies"
)

// emptyCellPools drops every pooled cell, so the next run builds its cells
// from empty ones.
func emptyCellPools() {
	cellPools.Lock()
	cellPools.m = nil
	cellPools.Unlock()
}

// pooledCells lists key's pooled cells, which stay in the pool.
func pooledCells(key cellKey) []*cell {
	cellPools.Lock()
	defer cellPools.Unlock()
	if st := cellPools.m[key]; st != nil {
		return slices.Clone(st.idle)
	}
	return nil
}

// cellsPerCountry counts the cells wl's plan gives each country.
func cellsPerCountry(wl Workload) map[string]int {
	n := map[string]int{}
	for _, cp := range plan(wl.withDefaults()) {
		n[cp.country]++
	}
	return n
}

// dirtyRun is a workload whose cells a reset test leaves in the pools.
type dirtyRun struct {
	name string
	wl   Workload
}

// TestCellResetMatchesFresh: a cell taken from its pool and reset for a
// plan runs exactly as an empty cell does. Workload b runs once on empty
// pools; then, for each dirtying workload, the pools are emptied, the
// dirtying workload leaves its cells in them, and b must reproduce its
// first Result and counters byte for byte on those cells. The series makes
// the reset undo every kind of state a cell carries out of a run: a shifted
// censor, impaired links and retransmitting endpoints, portfolio arms and
// router pins, more slot endpoints than b's cells use, listeners for other
// protocols, and the templates of other keep-alive shapes, which the pool
// key must keep away from b. Finally each dirtied pool wires b's cells
// once more and probes them: only the plan's slots may be on the network
// and only the plan's protocols' ports may accept a connection, two things
// no Result shows. A second series checks the arm engines' identity: a
// cell that served one portfolio must not serve another of the same size
// with the first one's engines.
func TestCellResetMatchesFresh(t *testing.T) {
	// A collection would empty the pools under the test.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer emptyCellPools()

	b := Workload{
		Countries: []string{eval.CountryChina, eval.CountryIran, eval.CountryKazakhstan,
			eval.CountryTurkmenistan, eval.CountryNone},
		Protocols:       []string{"http", "dns", "https"},
		Connections:     300,
		ClientsPerCell:  3,
		WaveGap:         30 * time.Second, // a live residual ledger
		SessionRequests: 3,
		RequestGap:      40 * time.Second,
		Reconnect:       ReconnectPolicy{MaxAttempts: 3, Backoff: 20 * time.Second, RetryAll: true},
		Workers:         1,
		Seed:            11,
	}
	with := func(base Workload, edit func(*Workload)) Workload {
		wl := base
		wl.Seed = 23
		edit(&wl)
		return wl
	}
	checkResetMatchesFresh(t, b, []dirtyRun{
		{"china-shift", with(b, func(wl *Workload) {
			wl.Shift = CensorShift{AtWave: 1, Country: eval.CountryChina,
				Params: map[string]float64{"prst": 0, "pmiss": 0.5}}
		})},
		{"impairments", with(b, func(wl *Workload) {
			wl.Impairments = netsim.Profile{Loss: 0.05, Duplicate: 0.02, Reorder: 0.05, Jitter: 3 * time.Millisecond}
		})},
		{"selection", with(b, func(wl *Workload) {
			wl.Portfolio = eval.DefaultPortfolio()
			wl.Selection = selector.Selection{Policy: selector.EpsilonGreedy}
		})},
		{"more-slots", with(b, func(wl *Workload) {
			wl.ClientsPerCell, wl.UnprotectedPerCell = 6, 3
			wl.Connections = 3 * b.Connections
		})},
		{"other-protocols", with(b, func(wl *Workload) { wl.Protocols = []string{"ftp", "smtp", "http"} })},
		{"no-censor", with(b, func(wl *Workload) { wl.Countries = []string{eval.CountryNone} })},
		// Other keep-alive shapes with reconnects, each differing from b's
		// key in one field: their templates must never reach b's cells.
		{"other-gap", with(b, func(wl *Workload) { wl.RequestGap = 20 * time.Second })},
		{"other-requests", with(b, func(wl *Workload) { wl.SessionRequests = 2 })},
	})

	portfolio := func(strats ...strategies.Strategy) selector.Portfolio {
		dsls := make([]string, len(strats))
		for i, s := range strats {
			dsls[i] = s.DSL
		}
		p, err := selector.NewPortfolio(dsls...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bp := b
	bp.Portfolio = portfolio(strategies.Strategy2, strategies.Strategy11)
	checkResetMatchesFresh(t, bp, []dirtyRun{
		{"other-portfolio", with(bp, func(wl *Workload) {
			wl.Portfolio = portfolio(strategies.Strategy11, strategies.Strategy2)
		})},
	})
}

// checkResetMatchesFresh is TestCellResetMatchesFresh's series: b on
// empty pools, then b on the cells each dirtying run leaves, then a probe
// of b's cells wired on each dirtied pool.
func checkResetMatchesFresh(t *testing.T, b Workload, dirt []dirtyRun) {
	t.Helper()
	emptyCellPools()
	want, wantCtrs := fleetSnapshot(t, b)
	needed := cellsPerCountry(b)
	for _, d := range dirt {
		emptyCellPools()
		if _, err := Run(d.wl); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		// Every b cell of a key the dirtying workload shares must come out
		// of the pool dirty.
		shared := cellsPerCountry(d.wl)
		for country, n := range needed {
			key := keyOf(b.withDefaults(), country)
			if shared[country] == 0 || keyOf(d.wl.withDefaults(), country) != key {
				continue
			}
			cells := pooledCells(key)
			if len(cells) < n {
				t.Fatalf("%s: %d pooled %q cells, want at least %d", d.name, len(cells), country, n)
			}
			for _, c := range cells {
				if c.Net == nil {
					t.Fatalf("%s: a pooled %q cell was never wired", d.name, country)
				}
			}
		}
		got, gotCtrs := fleetSnapshot(t, b)
		if got != want {
			t.Errorf("after %s: reset cells' Result differs from fresh cells':\n%s\nvs\n%s", d.name, got, want)
		}
		for k, v := range wantCtrs {
			if gotCtrs[k] != v {
				t.Errorf("after %s: counter %s = %d, fresh cells gave %d", d.name, k, gotCtrs[k], v)
			}
		}

		emptyCellPools()
		if _, err := Run(d.wl); err != nil {
			t.Fatal(err)
		}
		wl := b.withDefaults()
		ctl := resolveControl(wl)
		for _, c := range newCells(wl, plan(wl), ctl, 1) {
			probeCell(t, d.name, c, wl.Protocols)
		}
	}
}

// probeCell checks a freshly wired cell from outside: a packet for each
// slot endpoint it holds must reach the endpoint exactly when the plan
// uses the slot, and a SYN to each protocol's port must open a server
// connection exactly when the plan runs the protocol.
func probeCell(t *testing.T, name string, c *cell, protocols []string) {
	t.Helper()
	c.Net.RecyclePackets = false // the probes are not pool packets
	c.Net.Trace = &netsim.Trace{}
	used := map[int]bool{}
	for i := range c.plan.n {
		used[c.conn(i).slot] = true
	}
	for s, ep := range c.Clients {
		c.Net.Inject(packet.New(eval.ServerAddr, ep.Addr(), 80, 9), netsim.ToClient)
		c.drain()
		last := c.Net.Trace.Entries[len(c.Net.Trace.Entries)-1]
		if got, want := last.Event == netsim.EventDelivered, used[s]; got != want {
			t.Errorf("after %s: cell %d slot %d (%v) routed = %v, want %v", name, c.plan.index, s, ep.Addr(), got, want)
		}
	}
	for _, proto := range eval.Protocols() {
		port := eval.SessionFor(c.plan.country, proto, true).Port
		syn := packet.New(c.Clients[0].Addr(), eval.ServerAddr, 40000, port)
		syn.TCP.Flags = packet.FlagSYN
		before := len(c.Server.Conns())
		c.Net.Inject(syn, netsim.ToServer)
		c.drain()
		if got, want := len(c.Server.Conns()) > before, slices.Contains(protocols, proto); got != want {
			t.Errorf("after %s: cell %d listens on %s's port %d = %v, want %v", name, c.plan.index, proto, port, got, want)
		}
	}
}

// TestSeedScheduleMatchesCell is TestSeedScheduleMatchesRig's twin for
// cells: every stream the manifest records must seed the generator the
// cell's wiring draws it from. A wired cell's next draw on each of its
// generators is one of the first draws of a fresh generator at the cell's
// seed plus the recorded offset (the endpoints and the censor draw a few
// values while the cell is wired). That covers the arm engines' streams,
// which no golden can see: no §8 strategy draws. A portfolio's arm a draws
// at portfolio_arms + a, and a pinned cell's one arm at router + the
// country's §8 strategy number.
func TestSeedScheduleMatchesCell(t *testing.T) {
	wl := Workload{
		Countries:   []string{eval.CountryChina},
		Connections: 40,
		Impairments: netsim.Profile{Loss: 0.01},
		Selection:   selector.Selection{Policy: selector.EpsilonGreedy},
		Seed:        4242,
	}.withDefaults()
	ctl := resolveControl(wl)
	plans := plan(wl)
	sched := manifest(wl, len(plans), ctl).Seeds
	if sched.Base != wl.Seed || sched.TrialStep != cellSeedStride {
		t.Fatalf("schedule base %d step %d, want %d and %d", sched.Base, sched.TrialStep, wl.Seed, cellSeedStride)
	}
	cp := plans[1] // a cell whose seed is not the base
	c := new(cell)
	c.reset(wl, cp, ctl)
	cellSeed := sched.Base + int64(cp.index)*sched.TrialStep

	gens := map[string]*rand.Rand{
		"server":      c.Gens.Server,
		"censor":      c.Gens.Censor,
		"impairments": c.Gens.Impairments,
		"selector":    c.selRng,
	}
	offsets := map[string]int64{}
	for name, g := range gens {
		off, ok := sched.Streams[name]
		if !ok {
			t.Fatalf("the manifest records no %q stream", name)
		}
		offsets[name] = off
		if g == nil {
			t.Fatalf("the cell holds no %s generator", name)
		}
	}
	if len(c.Gens.Clients) != wl.ClientsPerCell+wl.UnprotectedPerCell {
		t.Fatalf("the cell holds %d client generators, want %d",
			len(c.Gens.Clients), wl.ClientsPerCell+wl.UnprotectedPerCell)
	}
	for s, g := range c.Gens.Clients {
		name := fmt.Sprintf("clients+%d", s)
		gens[name], offsets[name] = g, sched.Streams["clients"]+int64(s)
	}
	if len(c.Gens.Arms) != ctl.portfolio.Len() {
		t.Fatalf("the cell holds %d arm generators, want %d", len(c.Gens.Arms), ctl.portfolio.Len())
	}
	for a, g := range c.Gens.Arms {
		name := fmt.Sprintf("portfolio_arms+%d", a)
		gens[name], offsets[name] = g, sched.Streams["portfolio_arms"]+int64(a)
	}

	// The same plan pinned: the cell's one arm is China's §8 strategy.
	pinned := wl
	pinned.Selection = selector.Selection{}
	pc := new(cell)
	pc.reset(pinned, cp, resolveControl(pinned))
	if len(pc.Gens.Arms) != 1 {
		t.Fatalf("the pinned cell holds %d arm generators, want 1", len(pc.Gens.Arms))
	}
	def, _ := eval.CensorByCountry(eval.CountryChina)
	name := fmt.Sprintf("router+%d", def.Deploy.Number)
	gens[name], offsets[name] = pc.Gens.Arms[0], sched.Streams["router"]+int64(def.Deploy.Number)
	for name, g := range gens {
		seed := cellSeed + offsets[name]
		fresh := rand.New(rand.NewSource(seed))
		got, found := g.Int63(), false
		for j := 0; j < 16 && !found; j++ {
			found = fresh.Int63() == got
		}
		if !found {
			t.Errorf("%s stream: the cell drew %d, not among the first draws at seed %d", name, got, seed)
		}
	}
}
