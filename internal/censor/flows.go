package censor

import "geneva/internal/packet"

// maxFlows bounds every FlowTable. Real censors evict aggressively to
// survive at national scale (§2.1: "maintaining a TCB on a per-flow basis
// is challenging at scale, and thus on-path censors naturally take several
// shortcuts").
const maxFlows = 65536

// FlowTable is an on-path censor's per-flow state: one V per tracked flow,
// keyed by the canonical packet.Flow. Retired slots are recycled through a
// freelist, so a slot's V keeps whatever its last flow left in it (buffers
// keep their capacity) and the caller resets what it reads. A table that
// reaches maxFlows trims itself to half, oldest-created flows first, so
// which flows survive never depends on map iteration order. The zero value
// is an empty table.
type FlowTable[V any] struct {
	index map[packet.Flow]*flowSlot[V]
	free  []*flowSlot[V]
	// oldest and newest are the ends of the creation-order list.
	oldest, newest *flowSlot[V]
}

type flowSlot[V any] struct {
	key        packet.Flow
	prev, next *flowSlot[V] // creation order
	val        V
}

// Len is the number of tracked flows.
func (t *FlowTable[V]) Len() int { return len(t.index) }

// Get returns k's state, or nil if k is not tracked.
func (t *FlowTable[V]) Get(k packet.Flow) *V {
	if s := t.index[k]; s != nil {
		return &s.val
	}
	return nil
}

// Add starts tracking k, which must not be tracked yet, and returns its
// state and the number of flows evicted to make room: a full table first
// drops its oldest-created flows until it is under half the bound.
func (t *FlowTable[V]) Add(k packet.Flow) (v *V, evicted int) {
	if len(t.index) >= maxFlows {
		for len(t.index) >= maxFlows/2 {
			t.Delete(t.oldest.key)
			evicted++
		}
	}
	if t.index == nil {
		t.index = make(map[packet.Flow]*flowSlot[V])
	}
	var s *flowSlot[V]
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = new(flowSlot[V])
	}
	s.key, s.prev, s.next = k, t.newest, nil
	if t.newest != nil {
		t.newest.next = s
	} else {
		t.oldest = s
	}
	t.newest = s
	t.index[k] = s
	return &s.val, evicted
}

// Delete stops tracking k and frees its slot; an untracked k is a no-op.
func (t *FlowTable[V]) Delete(k packet.Flow) {
	s := t.index[k]
	if s == nil {
		return
	}
	delete(t.index, k)
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		t.oldest = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		t.newest = s.prev
	}
	t.free = append(t.free, s)
}
