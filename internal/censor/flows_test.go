package censor

import (
	"net/netip"
	"testing"

	"geneva/internal/packet"
)

// flowN is a distinct flow per n.
func flowN(n int) packet.Flow {
	return packet.Flow{
		SrcAddr: netip.AddrFrom4([4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)}),
		DstAddr: netip.AddrFrom4([4]byte{198, 51, 100, 9}),
		SrcPort: 40000, DstPort: 80,
	}
}

// fillPastBound adds flows 0..2*maxFlows-1, storing n as flow n's state,
// and retires every third flow right after its successor arrives, so
// recycled slots leave slot order unlike creation order. It reports the
// retired flows and the total evicted.
func fillPastBound(tab *FlowTable[int]) (retired map[int]bool, evicted int) {
	retired = map[int]bool{}
	for n := 0; n < 2*maxFlows; n++ {
		v, ev := tab.Add(flowN(n))
		*v = n
		evicted += ev
		if n%3 == 1 {
			tab.Delete(flowN(n - 1))
			retired[n-1] = true
		}
	}
	return retired, evicted
}

// TestFlowTableEvictsOldestFirst fills two tables past the bound the same
// way. Both must keep the same survivors: exactly the newest flows not
// retired by hand, each with its own state, within the bound.
func TestFlowTableEvictsOldestFirst(t *testing.T) {
	var a, b FlowTable[int]
	retired, evicted := fillPastBound(&a)
	fillPastBound(&b)
	if evicted == 0 {
		t.Fatal("no evictions despite filling the table twice over")
	}
	if a.Len() > maxFlows || a.Len() != b.Len() {
		t.Fatalf("tables hold %d and %d flows, want equal and at most %d", a.Len(), b.Len(), maxFlows)
	}
	oldest := -1 // oldest surviving flow
	for n := 0; n < 2*maxFlows; n++ {
		va, vb := a.Get(flowN(n)), b.Get(flowN(n))
		if (va == nil) != (vb == nil) {
			t.Fatalf("flow %d survives in one table only", n)
		}
		switch {
		case retired[n]:
			if va != nil {
				t.Fatalf("retired flow %d is still tracked", n)
			}
		case va == nil:
			if oldest >= 0 {
				t.Fatalf("flow %d was evicted but the older flow %d survived", n, oldest)
			}
		default:
			if *va != n || *vb != n {
				t.Fatalf("flow %d holds state %d and %d", n, *va, *vb)
			}
			if oldest < 0 {
				oldest = n
			}
		}
	}
	if oldest < 0 {
		t.Fatal("no flow survived")
	}
}

// TestFlowTableRecyclesSlots checks that a table whose flows come and go
// stays the size of its live population.
func TestFlowTableRecyclesSlots(t *testing.T) {
	var tab FlowTable[int]
	for n := 0; n < 1000; n++ {
		tab.Add(flowN(n))
		tab.Delete(flowN(n))
	}
	if tab.Len() != 0 || len(tab.free) != 1 {
		t.Errorf("after 1000 short-lived flows: %d tracked, %d free slots, want 0 and 1", tab.Len(), len(tab.free))
	}
	tab.Delete(flowN(0)) // untracked: a no-op
	if v := tab.Get(flowN(0)); v != nil {
		t.Error("a deleted flow is still tracked")
	}
}
