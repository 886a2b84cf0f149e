package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"geneva/internal/allocs"
	"geneva/internal/race"
)

// refQueue is a container/heap reference with the original comparator —
// ascending (at, seq) — used only to check the inlined 4-ary heap, alone
// and as one lane of the two-lane queue, against the implementation it
// replaced.
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
// spare capacity retains no packet or timer references (the value-slice
// equivalent of the old freelist's *e = event{}).
func TestEventHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	fired := false
	h.push(event{at: 1, seq: 1, timer: funcTimer(func() { fired = true })})
	h.push(event{at: 2, seq: 2, timer: funcTimer(func() { fired = true })})
	h.pop()
	h.pop()
	_ = fired
	for i := 0; i < cap(h.ev); i++ {
		slot := h.ev[:cap(h.ev)][i]
		if slot.timer != nil || slot.pkt != nil {
			t.Fatalf("slot %d retains references after pop: %+v", i, slot)
		}
	}
}

// queuePair drives the two-lane queue and the reference in lockstep, the
// way a Network does: packet legs go through pushLeg (the routing rule
// enqueue uses), timers straight to the heap (as After does), and each pop
// moves the virtual clock to the popped event. Legs are pushed at now+d, so
// a d smaller than the last one lands below the ring's tail.
type queuePair struct {
	t        *testing.T
	q        eventQueue
	ref      refQueue
	now      time.Duration
	seq      int
	ringLegs int // legs pushLeg put in the ring
	heapLegs int // legs pushLeg sent to the heap, below the ring's tail
}

func (p *queuePair) leg(d time.Duration) {
	p.seq++
	e := event{at: p.now + d, seq: p.seq}
	before := p.q.ring.n
	p.q.pushLeg(e)
	if p.q.ring.n > before {
		p.ringLegs++
	} else {
		p.heapLegs++
	}
	heap.Push(&p.ref, e)
}

func (p *queuePair) timer(d time.Duration) {
	p.seq++
	e := event{at: p.now + d, seq: p.seq}
	p.q.heap.push(e)
	heap.Push(&p.ref, e)
}

func (p *queuePair) advance(d time.Duration) { p.now += d }

func (p *queuePair) pop() {
	p.t.Helper()
	if p.q.len() != p.ref.Len() {
		p.t.Fatalf("length mismatch: queue %d, reference %d", p.q.len(), p.ref.Len())
	}
	if p.q.len() == 0 {
		return
	}
	got := p.q.pop()
	want := heap.Pop(&p.ref).(event)
	if got.at != want.at || got.seq != want.seq {
		p.t.Fatalf("pop mismatch: got (at=%v seq=%d), reference (at=%v seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	if got.at > p.now {
		p.now = got.at
	}
}

func (p *queuePair) drain() {
	p.t.Helper()
	for p.ref.Len() > 0 {
		p.pop()
	}
	if p.q.len() != 0 {
		p.t.Fatalf("queue not empty after drain: %d left", p.q.len())
	}
}

// TestEventQueueDifferential checks the two-lane queue pops in exactly the
// order a single container/heap does, across randomized schedules of
// packet legs, timers, clock advances and pops. The link delay changes
// mid-run, as LinkDelay may: when it shrinks, new legs land below the
// ring's tail and must go to the heap.
func TestEventQueueDifferential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		delays   []time.Duration // link delays to switch between
		switchP  int             // one op in switchP switches the delay
		timerP   int             // one push in timerP is a timer
		advanceP int             // one op in advanceP advances the clock
	}{
		{"steady_link", []time.Duration{1000}, 1 << 30, 8, 50},
		{"shrinking_link", []time.Duration{1000, 400, 0}, 40, 8, 50},
		{"tied_link", []time.Duration{0, 1, 2}, 5, 4, 20},
		{"rare_timers", []time.Duration{3, 1}, 10, 100, 1 << 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			p := &queuePair{t: t}
			delay := tc.delays[0]
			for op := 0; op < 4000; op++ {
				switch {
				case rng.Intn(tc.switchP) == 0:
					delay = tc.delays[rng.Intn(len(tc.delays))]
				case rng.Intn(tc.advanceP) == 0:
					p.advance(time.Duration(rng.Int63n(2000)))
				case rng.Intn(5) < 3 || p.ref.Len() == 0:
					if rng.Intn(tc.timerP) == 0 {
						p.timer(time.Duration(rng.Int63n(5000)))
					} else {
						p.leg(delay)
					}
				default:
					p.pop()
				}
			}
			p.drain()
			if p.ringLegs == 0 {
				t.Error("no leg rode the ring")
			}
			if len(tc.delays) > 1 && p.heapLegs == 0 {
				t.Error("no leg landed below the ring's tail")
			}
		})
	}
}

// FuzzEventQueue feeds arbitrary operation tapes to the two-lane queue and
// checks every pop against the container/heap reference. Each byte is one
// operation, with a delay folded to its low 3 bits to force ties and legs
// that land below the ring's tail: 0x00-0x3f pushes a packet leg, 0x40-0x7f
// a timer, 0x80-0xbf pops, and 0xc0-0xff advances the clock.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x80, 0x81, 0x33, 0x82})
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x80, 0x80})
	f.Add([]byte{0xff, 0x7f, 0x80, 0x01, 0x80})
	f.Add([]byte{0x03, 0x01, 0x40, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, tape []byte) {
		p := &queuePair{t: t}
		for _, b := range tape {
			d := time.Duration(b & 0x07)
			switch b >> 6 {
			case 0:
				p.leg(d)
			case 1:
				p.timer(d)
			case 2:
				p.pop()
			case 3:
				p.advance(d)
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

// legChurn is queueChurn on the two-lane queue, shaped like a network's
// traffic: each step pops the earliest event, moves the clock to it, and
// pushes what a delivery schedules. Most pushes are packet legs one link
// delay out; one in sixteen arrives at half the delay, below the ring's
// tail; one in eight is a timer. Both lanes are first grown to depth, as a
// recycled network's keep their capacity, so the step measures the steady
// state.
func legChurn(depth int) func() {
	const linkDelay = 1 << 10
	type push struct {
		d     time.Duration
		timer bool
	}
	rng := rand.New(rand.NewSource(7))
	tape := make([]push, 4096)
	for i := range tape {
		switch {
		case rng.Intn(8) == 0:
			tape[i] = push{d: time.Duration(rng.Int63n(1 << 20)), timer: true}
		case rng.Intn(16) == 0:
			tape[i] = push{d: linkDelay / 2}
		default:
			tape[i] = push{d: linkDelay}
		}
	}
	var q eventQueue
	for i := 0; i < depth; i++ {
		q.ring.push(event{})
		q.heap.push(event{})
	}
	for q.len() > 0 {
		q.pop()
	}
	var now time.Duration
	seq := 0
	schedule := func() {
		seq++
		p := tape[seq&4095]
		e := event{at: now + p.d, seq: seq}
		if p.timer {
			q.heap.push(e)
		} else {
			q.pushLeg(e)
		}
	}
	for i := 0; i < depth; i++ {
		schedule()
	}
	return func() {
		if e := q.pop(); e.at > now {
			now = e.at
		}
		schedule()
	}
}

// churns are the two steady-state shapes the queue budget and benchmark
// run: the bare heap, and the two-lane queue a network drives.
var churns = []struct {
	name string
	step func(depth int) func()
}{
	{"heap", queueChurn},
	{"lanes", legChurn},
}

// TestAllocBudgetEventQueue pins the event queue's churn at zero
// allocations at every depth, for the heap alone and for the two lanes:
// both are value slices, and every packet and timer of every run passes
// through them.
func TestAllocBudgetEventQueue(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
	for _, c := range churns {
		for _, depth := range queueDepths {
			if mean := allocs.Mean(10, 1000, c.step(depth)); mean > 0 {
				t.Errorf("%s depth=%d: event queue churn allocates %.3f objects/op, budget is 0", c.name, depth, mean)
			}
		}
	}
}

// BenchmarkEventQueue measures the cost of one churn step of each shape at
// each depth.
func BenchmarkEventQueue(b *testing.B) {
	for _, c := range churns {
		for _, depth := range queueDepths {
			b.Run(fmt.Sprintf("%s/depth=%d", c.name, depth), func(b *testing.B) {
				step := c.step(depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}
