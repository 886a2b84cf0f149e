package netsim

// The event queue has two lanes. Most events are unimpaired packet legs,
// each pushed at Now()+LinkDelay. The clock never runs backwards and seq only
// grows, so these legs arrive already in (at, seq) order, and a FIFO ring
// holds them at O(1) per push and pop. The 4-ary heap (heap.go) keeps the
// rest: timers, impaired and duplicated copies, and any leg that would land
// below the ring's tail (after LinkDelay shrinks mid-run, say). pop takes the
// smaller head of the two by eventLess, so the pop order is exactly that of a
// single heap. heap_test.go checks it in lockstep against a container/heap
// reference, and FuzzEventQueue does the same over arbitrary tapes.

type eventQueue struct {
	ring eventRing
	heap eventHeap
}

func (q *eventQueue) len() int { return q.ring.n + q.heap.len() }

// pushLeg queues an unimpaired packet leg: into the ring when that keeps
// the ring sorted, into the heap otherwise.
func (q *eventQueue) pushLeg(e event) {
	if q.ring.n == 0 || e.at >= q.ring.back().at {
		q.ring.push(e)
		return
	}
	q.heap.push(e)
}

// pop removes and returns the earliest event of either lane. The queue must
// not be empty.
func (q *eventQueue) pop() event {
	if q.ring.n > 0 && (q.heap.len() == 0 || eventLess(q.ring.front(), &q.heap.ev[0])) {
		return q.ring.pop()
	}
	return q.heap.pop()
}

// eventRing is a FIFO of events in a power-of-two buffer. Its only writer,
// eventQueue.pushLeg, keeps it in (at, seq) order.
type eventRing struct {
	buf  []event // len(buf) is 0 or a power of two
	head int     // index of the first event
	n    int     // events queued
}

func (r *eventRing) front() *event { return &r.buf[r.head] }

func (r *eventRing) back() *event { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

func (r *eventRing) push(e event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// pop removes and returns the first event, zeroing its slot so the buffer
// holds no stale *Packet reference.
func (r *eventRing) pop() event {
	e := r.buf[r.head]
	r.buf[r.head] = event{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles a full ring, unwrapping it to start at index 0. A handshake
// plus a short data exchange keeps only a handful of legs in flight, so the
// first buffer holds 8 and a network's steady state never grows it.
func (r *eventRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]event, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
