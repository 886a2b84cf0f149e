package fleet

import (
	"net/netip"

	"geneva/internal/eval"
)

// connPlan is what the plan fixes about one connection of a cell.
type connPlan struct {
	wave        int
	slot        int // endpoint slot within the cell
	unprotected bool
	protocol    string
}

// cellPlan is one cell's share of the workload: n connections of country,
// whose global connection indices run from first. Every other fact about a
// connection follows from its index within the cell (cell.conn).
type cellPlan struct {
	index   int // stable global cell index
	country string
	first   int // global index of the cell's connection 0
	n       int
}

// plan partitions the workload into cells: connections split evenly across
// countries (earlier countries absorb the remainder), each country's share
// cut into full cells, the last cell taking the rest. A cell runs its waves
// one after another: every wave carries ClientsPerCell routed connections,
// and each odd wave adds UnprotectedPerCell unprotected ones after them.
// The enumeration order here is the only order that matters — global
// connection and cell indices are assigned by it, and every seed derives
// from them.
func plan(wl Workload) []cellPlan {
	size := waveStart(wl, wl.WavesPerCell)
	var cells []cellPlan
	global := 0
	base := wl.Connections / len(wl.Countries)
	extra := wl.Connections % len(wl.Countries)
	for ci, country := range wl.Countries {
		quota := base
		if ci < extra {
			quota++
		}
		for quota > 0 {
			n := min(quota, size)
			cells = append(cells, cellPlan{index: len(cells), country: country, first: global, n: n})
			global += n
			quota -= n
		}
	}
	return cells
}

// waveStart is the index within a full cell of wave w's first connection.
func waveStart(wl Workload, w int) int {
	return w*wl.ClientsPerCell + w/2*wl.UnprotectedPerCell
}

// conn is the plan of the cell's connection i. A pair of waves, even then
// odd, holds 2·ClientsPerCell + UnprotectedPerCell connections: the even
// wave's routed slots, then the odd wave's routed slots and its
// unprotected ones numbered after them.
func (c *cell) conn(i int) connPlan {
	clients := c.wl.ClientsPerCell
	pair := 2*clients + c.wl.UnprotectedPerCell
	cn := connPlan{wave: 2 * (i / pair), slot: i % pair}
	if cn.slot >= clients {
		cn.wave++
		cn.slot -= clients
	}
	cn.unprotected = cn.slot >= clients
	cn.protocol = c.wl.Protocols[(c.plan.first+i)%len(c.wl.Protocols)]
	return cn
}

// start is the index of wave w's first connection; start(waves()) is the
// cell's connection count.
func (c *cell) start(w int) int { return min(c.plan.n, waveStart(c.wl, w)) }

// waves is the number of waves the cell runs: up to its last connection's.
func (c *cell) waves() int { return c.conn(c.plan.n-1).wave + 1 }

// contested reports whether wave w carries unprotected connections, whose
// censor state can hit the wave's routed ones as collateral.
func (c *cell) contested(w int) bool { return c.start(w)+c.wl.ClientsPerCell < c.start(w+1) }

// slots is the number of client slots the cell uses: the routed slots of
// its first wave and the unprotected ones of its second, numbered from 0
// in that order. Later waves reuse them.
func (c *cell) slots() int {
	clients := c.wl.ClientsPerCell
	return min(c.plan.n, clients) + max(0, min(c.plan.n-2*clients, c.wl.UnprotectedPerCell))
}

// clientAddr places a cell's client endpoints: routed slots inside the
// country's router prefix, unprotected slots (and uncensored populations)
// in ranges no route covers.
func clientAddr(country string, slot int, unprotected bool) netip.Addr {
	if unprotected {
		return netip.AddrFrom4([4]byte{172, 16, 0, byte(2 + slot)})
	}
	return eval.RoutedClientAddr(country, slot)
}
