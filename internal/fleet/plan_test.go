package fleet

import (
	"fmt"
	"testing"

	"geneva/internal/eval"
)

// enumeratedConn is one connection of enumeratePlan's reference plan.
type enumeratedConn struct {
	global int
	connPlan
}

// enumeratedCell is one cell of enumeratePlan's reference plan.
type enumeratedCell struct {
	index   int
	country string
	conns   []enumeratedConn
}

// enumeratePlan is the plan spelled out connection by connection: each
// country's quota is dealt into cells wave by wave, every wave taking the
// routed slots and each odd wave the unprotected slots after them. plan and
// cell.conn must agree with it on every connection.
func enumeratePlan(wl Workload) []enumeratedCell {
	var cells []enumeratedCell
	global := 0
	base := wl.Connections / len(wl.Countries)
	extra := wl.Connections % len(wl.Countries)
	for ci, country := range wl.Countries {
		quota := base
		if ci < extra {
			quota++
		}
		for quota > 0 {
			cell := enumeratedCell{index: len(cells), country: country}
			add := func(wave, slot int, unprotected bool) {
				cell.conns = append(cell.conns, enumeratedConn{global: global, connPlan: connPlan{
					wave:        wave,
					slot:        slot,
					unprotected: unprotected,
					protocol:    wl.Protocols[global%len(wl.Protocols)],
				}})
				global++
				quota--
			}
			for w := 0; w < wl.WavesPerCell && quota > 0; w++ {
				for s := 0; s < wl.ClientsPerCell && quota > 0; s++ {
					add(w, s, false)
				}
				if w%2 == 1 {
					for u := 0; u < wl.UnprotectedPerCell && quota > 0; u++ {
						add(w, wl.ClientsPerCell+u, true)
					}
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// TestFleetPlanMatchesEnumeration: the arithmetic plan — cells of four
// numbers, each connection derived from its index — gives every connection
// the global index, wave, slot, protection and protocol the enumerated plan
// gives it, and each cell the same waves, wave ranges, contested waves and
// client slots, over a grid of cell shapes and connection counts that do
// not fill whole cells.
func TestFleetPlanMatchesEnumeration(t *testing.T) {
	allCountries := append(eval.CensoredCountries(), eval.CountryNone)
	if len(allCountries) < 8 {
		t.Fatalf("%d countries registered, the grid needs 8", len(allCountries))
	}
	allProtocols := eval.Protocols()
	if len(allProtocols) < 5 {
		t.Fatalf("%d protocols registered, the grid needs 5", len(allProtocols))
	}
	for _, countries := range []int{1, 3, 8} {
		for _, waves := range []int{1, 2, 5, 32} {
			for _, unprotected := range []int{0, 1, 3} {
				for _, clients := range []int{1, 4, 16} {
					for _, protocols := range []int{1, 3, 5} {
						wl := Workload{
							Countries:          allCountries[:countries],
							Protocols:          allProtocols[:protocols],
							ClientsPerCell:     clients,
							WavesPerCell:       waves,
							UnprotectedPerCell: unprotected,
						}
						size := waves*clients + waves/2*unprotected
						for _, n := range []int{1, size + 1, 2*size - 1, countries*(3*size+1) + 2, 97} {
							wl.Connections = n
							checkPlan(t, wl)
						}
					}
				}
			}
		}
	}
}

// checkPlan compares wl's plan with its enumeration.
func checkPlan(t *testing.T, wl Workload) {
	t.Helper()
	name := fmt.Sprintf("%d conns, %d countries, W=%d C=%d U=%d, %d protocols",
		wl.Connections, len(wl.Countries), wl.WavesPerCell, wl.ClientsPerCell, wl.UnprotectedPerCell, len(wl.Protocols))
	want := enumeratePlan(wl)
	got := plan(wl)
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", name, len(got), len(want))
	}
	for k, cp := range got {
		ref := want[k]
		if cp.index != ref.index || cp.country != ref.country || cp.n != len(ref.conns) {
			t.Fatalf("%s: cell %d is #%d of %s with %d conns, want #%d of %s with %d",
				name, k, cp.index, cp.country, cp.n, ref.index, ref.country, len(ref.conns))
		}
		c := &cell{wl: wl, plan: cp}
		waves := 0
		slots := map[int]bool{}
		contested := map[int]bool{}
		for i, rc := range ref.conns {
			if got := (enumeratedConn{global: cp.first + i, connPlan: c.conn(i)}); got != rc {
				t.Fatalf("%s: cell %d conn %d = %+v, want %+v", name, k, i, got, rc)
			}
			if i < c.start(rc.wave) || i >= c.start(rc.wave+1) {
				t.Fatalf("%s: cell %d conn %d of wave %d lies outside the wave's range [%d, %d)",
					name, k, i, rc.wave, c.start(rc.wave), c.start(rc.wave+1))
			}
			waves = max(waves, rc.wave+1)
			slots[rc.slot] = true
			if rc.unprotected {
				contested[rc.wave] = true
			}
		}
		if c.waves() != waves {
			t.Fatalf("%s: cell %d runs %d waves, want %d", name, k, c.waves(), waves)
		}
		if c.start(waves) != cp.n {
			t.Fatalf("%s: cell %d's waves end at %d, want %d", name, k, c.start(waves), cp.n)
		}
		for w := range waves {
			if c.contested(w) != contested[w] {
				t.Fatalf("%s: cell %d wave %d contested = %v, want %v", name, k, w, c.contested(w), contested[w])
			}
		}
		if c.slots() != len(slots) {
			t.Fatalf("%s: cell %d uses %d slots, want %d", name, k, c.slots(), len(slots))
		}
		for s := range c.slots() {
			if !slots[s] {
				t.Fatalf("%s: cell %d uses slot %d, which no connection of it takes", name, k, s)
			}
		}
	}
}
