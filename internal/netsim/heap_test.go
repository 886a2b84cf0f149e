package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"geneva/internal/race"
)

// refQueue is a container/heap reference with the original comparator —
// ascending (at, seq) — used only to check the inlined 4-ary heap against
// the implementation it replaced.
type refQueue []event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// heapPair drives the value heap and the reference in lockstep. seq mirrors
// Network.seq: strictly increasing per push, so ties are exercised purely
// through equal at values.
type heapPair struct {
	t   *testing.T
	h   eventHeap
	ref refQueue
	seq int
}

func (p *heapPair) push(at time.Duration) {
	p.seq++
	e := event{at: at, seq: p.seq}
	p.h.push(e)
	heap.Push(&p.ref, e)
}

func (p *heapPair) pop() {
	p.t.Helper()
	if p.h.len() != p.ref.Len() {
		p.t.Fatalf("length mismatch: heap %d, reference %d", p.h.len(), p.ref.Len())
	}
	if p.h.len() == 0 {
		return
	}
	got := p.h.pop()
	want := heap.Pop(&p.ref).(event)
	if got.at != want.at || got.seq != want.seq {
		p.t.Fatalf("pop mismatch: got (at=%v seq=%d), reference (at=%v seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
}

func (p *heapPair) drain() {
	p.t.Helper()
	for p.ref.Len() > 0 {
		p.pop()
	}
	if p.h.len() != 0 {
		p.t.Fatalf("heap not empty after drain: %d left", p.h.len())
	}
}

// TestEventHeapDifferential checks the inlined 4-ary heap pops in exactly
// the order the container/heap implementation did, across randomized
// push/pop schedules. Timestamps are drawn from a small range so
// equal-timestamp bursts — where only the seq FIFO tie-break decides — are
// common, not rare.
func TestEventHeapDifferential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		atRange int64 // distinct timestamps; 1 = everything ties
		ops     int
	}{
		{"all_ties", 1, 400},
		{"heavy_ties", 4, 1000},
		{"some_ties", 64, 2000},
		{"mostly_distinct", 1 << 30, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			p := &heapPair{t: t}
			for op := 0; op < tc.ops; op++ {
				// Bias toward pushes so the heap grows past trivial sizes,
				// but interleave pops throughout (the simulator's pattern).
				if rng.Intn(5) < 3 || p.ref.Len() == 0 {
					p.push(time.Duration(rng.Int63n(tc.atRange)))
				} else {
					p.pop()
				}
			}
			p.drain()
		})
	}
}

// TestEventHeapBurst pushes whole bursts at identical timestamps — the
// shape a wave of simultaneous sends produces — and checks strict FIFO
// within each timestamp.
func TestEventHeapBurst(t *testing.T) {
	var h eventHeap
	seq := 0
	for burst := 0; burst < 10; burst++ {
		for i := 0; i < 37; i++ {
			seq++
			h.push(event{at: time.Duration(burst), seq: seq})
		}
	}
	lastAt, lastSeq := time.Duration(-1), 0
	for h.len() > 0 {
		e := h.pop()
		if e.at < lastAt || (e.at == lastAt && e.seq <= lastSeq) {
			t.Fatalf("order violated: (at=%v seq=%d) after (at=%v seq=%d)",
				e.at, e.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = e.at, e.seq
	}
}

// TestEventHeapPopClearsSlot checks pop zeroes the vacated tail slot so the
// spare capacity retains no packet or closure references (the value-slice
// equivalent of the old freelist's *e = event{}).
func TestEventHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	fired := false
	h.push(event{at: 1, seq: 1, fire: func() { fired = true }})
	h.push(event{at: 2, seq: 2, fire: func() { fired = true }})
	h.pop()
	h.pop()
	_ = fired
	for i := 0; i < cap(h.ev); i++ {
		slot := h.ev[:cap(h.ev)][i]
		if slot.fire != nil || slot.pkt != nil {
			t.Fatalf("slot %d retains references after pop: %+v", i, slot)
		}
	}
}

// FuzzEventQueue feeds arbitrary operation tapes to the heap pair: each
// input byte either pushes (with a timestamp folded to 3 bits, forcing tie
// collisions) or pops, and every pop must match the container/heap
// reference.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x80, 0x81, 0x33, 0x82})
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x80, 0x80})
	f.Add([]byte{0xff, 0x7f, 0x80, 0x01, 0x80})
	f.Fuzz(func(t *testing.T, tape []byte) {
		p := &heapPair{t: t}
		for _, b := range tape {
			if b&0x80 == 0 {
				p.push(time.Duration(b & 0x07))
			} else {
				p.pop()
			}
		}
		p.drain()
	})
}

// queueDepths are the steady-state queue depths the churn loop holds: a
// connection keeps a handful of events in flight, a busy cell a few dozen.
var queueDepths = []int{4, 16, 64}

// queueChurn fills a heap to depth and returns one step of the steady-state
// push/pop churn the simulator drives: pop the earliest event, move it
// forward in time, push it back. The timestamp tape is pre-generated so rng
// cost stays out of the step.
func queueChurn(depth int) func() {
	rng := rand.New(rand.NewSource(7))
	tape := make([]time.Duration, 4096)
	for i := range tape {
		tape[i] = time.Duration(rng.Int63n(1 << 20))
	}
	var h eventHeap
	seq := 0
	for i := 0; i < depth; i++ {
		seq++
		h.push(event{at: tape[seq&4095], seq: seq})
	}
	return func() {
		e := h.pop()
		seq++
		e.at += tape[seq&4095]
		e.seq = seq
		h.push(e)
	}
}

// TestAllocBudgetEventQueue pins the event queue's churn at zero
// allocations at every depth: the heap is a value slice, and every packet
// and timer of every run passes through it.
func TestAllocBudgetEventQueue(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	for _, depth := range queueDepths {
		if allocs := testing.AllocsPerRun(1000, queueChurn(depth)); allocs > 0 {
			t.Errorf("depth=%d: event queue churn allocates %.1f objects/op, budget is 0", depth, allocs)
		}
	}
}

// BenchmarkEventQueue measures the cost of one churn step at each depth.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range queueDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			step := queueChurn(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
