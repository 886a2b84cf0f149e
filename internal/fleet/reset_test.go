package fleet

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/race"
	"geneva/internal/selector"
)

// emptyCellPools drops every pooled cell, so the next run builds its cells
// from empty ones.
func emptyCellPools() {
	cellPools.Lock()
	cellPools.m = nil
	cellPools.Unlock()
}

// pooledCells takes every built cell out of key's pool.
func pooledCells(key cellKey) []*cell {
	p := cellPool(key)
	var out []*cell
	for {
		c := p.Get().(*cell)
		if c.net == nil {
			return out
		}
		out = append(out, c)
	}
}

// cellsPerCountry counts the cells wl's plan gives each country.
func cellsPerCountry(wl Workload) map[string]int {
	n := map[string]int{}
	for _, cp := range plan(wl.withDefaults()) {
		n[cp.country]++
	}
	return n
}

// TestCellResetMatchesFresh: a cell taken from its pool and reset for a
// plan runs exactly as an empty cell does. Workload b runs once on empty
// pools; then, for each dirtying workload, the pools are emptied, the
// dirtying workload leaves its cells in them, and b must reproduce its
// first Result and counters byte for byte on those cells. The series makes
// the reset undo every kind of state a cell carries out of a run: a shifted
// censor, impaired links and retransmitting endpoints, portfolio leases
// and router pins, more slot endpoints than b's cells use, listeners for
// other protocols, and the templates of other keep-alive shapes, which the
// pool key must keep away from b. Finally each dirtied pool wires b's cells
// once more and probes them: only the plan's slots may be on the network
// and only the plan's protocols' ports may accept a connection, two things
// no Result shows.
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
	emptyCellPools()
	want, wantCtrs := fleetSnapshot(t, b)

	with := func(edit func(*Workload)) Workload {
		wl := b
		wl.Seed = 23
		edit(&wl)
		return wl
	}
	dirt := []struct {
		name string
		wl   Workload
	}{
		{"china-shift", with(func(wl *Workload) {
			wl.Shift = CensorShift{AtWave: 1, Country: eval.CountryChina,
				Params: map[string]float64{"prst": 0, "pmiss": 0.5}}
		})},
		{"impairments", with(func(wl *Workload) {
			wl.Impairments = netsim.Profile{Loss: 0.05, Duplicate: 0.02, Reorder: 0.05, Jitter: 3 * time.Millisecond}
		})},
		{"selection", with(func(wl *Workload) {
			wl.Portfolio = eval.DefaultPortfolio()
			wl.Selection = selector.Selection{Policy: selector.EpsilonGreedy}
		})},
		{"more-slots", with(func(wl *Workload) {
			wl.ClientsPerCell, wl.UnprotectedPerCell = 6, 3
			wl.Connections = 3 * b.Connections
		})},
		{"other-protocols", with(func(wl *Workload) { wl.Protocols = []string{"ftp", "smtp", "http"} })},
		{"no-censor", with(func(wl *Workload) { wl.Countries = []string{eval.CountryNone} })},
		// Other keep-alive shapes with reconnects, each differing from b's
		// key in one field: their templates must never reach b's cells.
		{"other-gap", with(func(wl *Workload) { wl.RequestGap = 20 * time.Second })},
		{"other-requests", with(func(wl *Workload) { wl.SessionRequests = 2 })},
	}
	needed := cellsPerCountry(b)
	for _, d := range dirt {
		emptyCellPools()
		if _, err := Run(d.wl); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		// Every b cell of a key the dirtying workload shares must come out
		// of the pool dirty. (The race detector's sync.Pool drops a random
		// quarter of what is put, so under it one dirty cell must do.)
		shared := cellsPerCountry(d.wl)
		for country, n := range needed {
			key := keyOf(b.withDefaults(), country)
			if shared[country] == 0 || keyOf(d.wl.withDefaults(), country) != key {
				continue
			}
			cells := pooledCells(key)
			floor := n
			if race.Enabled {
				floor = 1
			}
			if len(cells) < floor {
				t.Fatalf("%s: %d pooled %q cells, want at least %d", d.name, len(cells), country, floor)
			}
			for _, c := range cells {
				c.home.Put(c)
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
		for _, cp := range plan(wl) {
			c := newCell(wl, cp, ctl)
			probeCell(t, d.name, c, wl.Protocols)
			c.finish()
		}
	}
}

// probeCell checks a freshly wired cell from outside: a packet for each
// slot endpoint it holds must reach the endpoint exactly when the plan
// uses the slot, and a SYN to each protocol's port must open a server
// connection exactly when the plan runs the protocol.
func probeCell(t *testing.T, name string, c *cell, protocols []string) {
	t.Helper()
	c.net.RecyclePackets = false // the probes are not pool packets
	c.net.Trace = &netsim.Trace{}
	used := map[int]bool{}
	for _, cn := range c.plan.conns {
		used[cn.slot] = true
	}
	for s, ep := range c.slots {
		c.net.Inject(packet.New(eval.ServerAddr, ep.Addr(), 80, 9), netsim.ToClient)
		c.drain()
		last := c.net.Trace.Entries[len(c.net.Trace.Entries)-1]
		if got, want := last.Event == netsim.EventDelivered, used[s]; got != want {
			t.Errorf("after %s: cell %d slot %d (%v) routed = %v, want %v", name, c.plan.index, s, ep.Addr(), got, want)
		}
	}
	for _, proto := range eval.Protocols() {
		port := eval.SessionFor(c.plan.country, proto, true).Port
		syn := packet.New(c.slots[0].Addr(), eval.ServerAddr, 40000, port)
		syn.TCP.Flags = packet.FlagSYN
		before := len(c.server.Conns())
		c.net.Inject(syn, netsim.ToServer)
		c.drain()
		if got, want := len(c.server.Conns()) > before, slices.Contains(protocols, proto); got != want {
			t.Errorf("after %s: cell %d listens on %s's port %d = %v, want %v", name, c.plan.index, proto, port, got, want)
		}
	}
}
