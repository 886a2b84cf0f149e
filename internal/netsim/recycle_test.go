package netsim

import (
	"math/rand"
	"testing"
	"time"

	"geneva/internal/obs"
	"geneva/internal/packet"
)

// TestRecyclingResetDrainsBothLanes queues packets in both event lanes, an
// impaired duplicate and a pending timer, then resets the network. Every
// queued packet must go back to the pool exactly once, the timer must never
// run, and the reset network must deliver like a new one. make pool-safety
// runs it under GODEBUG=clobberfree=1.
func TestRecyclingResetDrainsBothLanes(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)

	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	n := New(c, s)
	n.RecyclePackets = true
	n.Send(c, packet.Get(clientAddr, serverAddr, 40000, 80)) // ring
	n.Send(c, packet.Get(clientAddr, serverAddr, 40000, 80)) // ring
	n.LinkDelay = time.Millisecond / 2
	n.Send(c, packet.Get(clientAddr, serverAddr, 40000, 80)) // below the ring's tail: heap
	n.SetImpairments(Impairments{ToClient: Profile{Duplicate: 1}}, rand.New(rand.NewSource(1)))
	n.Send(s, packet.Get(serverAddr, clientAddr, 80, 40000)) // impaired copy and its duplicate: heap
	fired := false
	n.After(time.Millisecond, func() { fired = true })
	if inRing, inHeap := n.queue.ring.n, n.queue.heap.len(); inRing != 2 || inHeap != 4 {
		t.Fatalf("lanes hold %d (ring) and %d (heap) events, want 2 and 4", inRing, inHeap)
	}

	before := mRecycled.Value()
	n.ResetMulti(s, []Host{c})
	if got := mRecycled.Value() - before; got != 5 {
		t.Fatalf("reset recycled %d packets, want the 5 queued", got)
	}
	if !n.Quiet() {
		t.Fatal("network not quiet after reset")
	}
	for i, e := range n.queue.ring.buf {
		if e.pkt != nil || e.timer != nil {
			t.Fatalf("ring slot %d still holds an event after reset", i)
		}
	}
	for i, e := range n.queue.heap.ev[:cap(n.queue.heap.ev)] {
		if e.pkt != nil || e.timer != nil {
			t.Fatalf("heap slot %d still holds an event after reset", i)
		}
	}
	n.ResetMulti(s, []Host{c})
	if got := mRecycled.Value() - before; got != 5 {
		t.Fatalf("a second reset recycled %d more packets, want none", got-5)
	}

	n.Send(c, syn(64))
	if got := n.Run(0); got != 1 {
		t.Fatalf("reset network ran %d events, want 1", got)
	}
	if fired {
		t.Error("a timer queued before the reset ran after it")
	}
	if len(s.got) != 1 || n.Clock.Now() != time.Millisecond {
		t.Errorf("reset network delivered %d packets by %v, want 1 by 1ms", len(s.got), n.Clock.Now())
	}
}
