package fleet

import (
	"net/netip"

	"geneva/internal/eval"
)

// connPlan is one planned connection.
type connPlan struct {
	global      int // stable global connection index
	wave        int
	slot        int // endpoint slot within the cell
	unprotected bool
	protocol    string
}

// cellPlan is one cell's share of the workload.
type cellPlan struct {
	index   int // stable global cell index
	country string
	conns   []connPlan
}

// plan partitions the workload into cells: connections split evenly across
// countries (earlier countries absorb the remainder), each country's share
// chunked into cells wave by wave. The enumeration order here is the only
// order that matters — global connection and cell indices are assigned by
// it, and every seed derives from them.
func plan(wl Workload) []cellPlan {
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
			cell := cellPlan{index: len(cells), country: country}
			for w := 0; w < wl.WavesPerCell && quota > 0; w++ {
				for s := 0; s < wl.ClientsPerCell && quota > 0; s++ {
					cell.conns = append(cell.conns, connPlan{
						global:   global,
						wave:     w,
						slot:     s,
						protocol: wl.Protocols[global%len(wl.Protocols)],
					})
					global++
					quota--
				}
				if w%2 == 1 {
					for u := 0; u < wl.UnprotectedPerCell && quota > 0; u++ {
						cell.conns = append(cell.conns, connPlan{
							global:      global,
							wave:        w,
							slot:        wl.ClientsPerCell + u,
							unprotected: true,
							protocol:    wl.Protocols[global%len(wl.Protocols)],
						})
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

// clientAddr places a cell's client endpoints: routed slots inside the
// country's router prefix, unprotected slots (and uncensored populations)
// in ranges no route covers.
func clientAddr(country string, slot int, unprotected bool) netip.Addr {
	if unprotected {
		return netip.AddrFrom4([4]byte{172, 16, 0, byte(2 + slot)})
	}
	return eval.RoutedClientAddr(country, slot)
}
