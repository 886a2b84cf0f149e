package netsim

import (
	"testing"
	"time"
	"unsafe"

	"geneva/internal/allocs"
	"geneva/internal/race"
)

// countTimer is a timer target that records each firing's argument.
type countTimer struct{ args []uint64 }

func (c *countTimer) Fire(arg uint64) { c.args = append(c.args, arg) }

// TestEventSize pins an event at 48 bytes: both lanes move events by value,
// and every packet leg and timer of every run passes through them.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event is %d bytes, want 48", got)
	}
}

// TestAfterTimerFiresTargetWithArg checks that a timer fires its target
// with the argument it was armed with, at its due time and in (at, seq)
// order among timers of both kinds.
func TestAfterTimerFiresTargetWithArg(t *testing.T) {
	n := New(&recordHost{addr: clientAddr}, &recordHost{addr: serverAddr})
	tgt := &countTimer{}
	var order []string
	n.AfterTimer(2*time.Millisecond, tgt, 1<<40)
	n.After(time.Millisecond, func() { order = append(order, "func") })
	n.AfterTimer(time.Millisecond, tgt, 7)
	n.Run(0)
	if len(tgt.args) != 2 || tgt.args[0] != 7 || tgt.args[1] != 1<<40 {
		t.Fatalf("target fired with %v, want [7 %d]", tgt.args, uint64(1<<40))
	}
	if len(order) != 1 || n.Clock.Now() != 2*time.Millisecond {
		t.Fatalf("func timer fired %d times, clock at %v; want once, 2ms", len(order), n.Clock.Now())
	}
}

// TestAllocBudgetTimer pins arming and firing a timer at zero allocations,
// for a Timer target and for a prebuilt func: a func is pointer-shaped, so
// After's adapter stores it in the event without boxing it.
func TestAllocBudgetTimer(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	n := New(&recordHost{addr: clientAddr}, &recordHost{addr: serverAddr})
	tgt := &countTimer{args: make([]uint64, 0, 4096)}
	if mean := allocs.Mean(10, 1000, func() {
		n.AfterTimer(time.Millisecond, tgt, 3)
		n.Run(0)
		tgt.args = tgt.args[:0]
	}); mean > 0 {
		t.Errorf("AfterTimer and its fire allocate %.3f objects/op, budget is 0", mean)
	}
	fired := 0
	fn := func() { fired++ }
	if mean := allocs.Mean(10, 1000, func() {
		n.After(time.Millisecond, fn)
		n.Run(0)
	}); mean > 0 {
		t.Errorf("After with a prebuilt func and its fire allocate %.3f objects/op, budget is 0", mean)
	}
	if fired != 1010 {
		t.Errorf("func timer fired %d times, want 1010", fired)
	}
}
