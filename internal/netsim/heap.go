package netsim

// The heap is the event queue's general lane (queue.go): every timer,
// impaired or duplicated copy, and packet leg that would land below the FIFO
// ring's tail passes through one push and one pop here. Unimpaired legs ride
// the ring instead. The original implementation was a container/heap over
// []*event with a freelist; profiles showed the interface-method sift calls
// (Less/Swap via heap.Interface) and the any round-trips on Push/Pop as a
// steady ~7% of a fleet run. This file replaces it with an inlined,
// index-based 4-ary min-heap over a value slice []event:
//
//   - values, not pointers: no freelist, no per-event pointer chasing, and
//     the slice grows amortized like any other buffer;
//   - inlined sifts: eventLess is a direct two-field compare, monomorphic,
//     with the hole-based up/down writing each slot once instead of swapping;
//   - 4-ary layout: children of i are 4i+1..4i+4, parent is (i-1)/4. A
//     wider node roughly halves tree depth for the queue sizes a connection
//     generates (a handful to a few dozen events), trading cheap sequential
//     compares within a cache line for expensive cross-level moves.
//
// Ordering is exactly the old comparator: ascending (at, seq). seq is a
// strictly increasing push counter, so equal-timestamp events pop in push
// order (FIFO) and the heap order is total — pop order is deterministic and
// byte-identical to the container/heap implementation. heap_test.go locks
// this in with a differential property test against a container/heap
// reference, and FuzzEventQueue checks the two lanes together against it.

type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// eventLess orders events by (at, seq): earlier virtual time first, FIFO on
// ties. seq is never reused, so this is a strict total order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	// Sift up with a hole: start from the appended slot, move parents down
	// until e's position is found, then write e once.
	ev := append(h.ev, e)
	h.ev = ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&e, &ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
}

// pop removes and returns the minimum event. The vacated tail slot is zeroed
// so the heap's spare capacity holds no stale *Packet or timer-target
// references that would keep them reachable.
func (h *eventHeap) pop() event {
	ev := h.ev
	min := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = event{}
	h.ev = ev[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return min
}

// siftDown places e (the former tail) starting from the root hole: at each
// level the smallest of up to four children moves up into the hole until e
// is no larger than all remaining children.
func (h *eventHeap) siftDown(e event) {
	ev := h.ev
	n := len(ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(&ev[c], &ev[best]) {
				best = c
			}
		}
		if !eventLess(&ev[best], &e) {
			break
		}
		ev[i] = ev[best]
		i = best
	}
	ev[i] = e
}
