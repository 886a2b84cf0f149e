package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

// FuzzImpairments hammers the impairment scheduler with arbitrary profiles
// and traffic shapes: it must never panic, must conserve packets (every
// send, duplicate and injection ends in exactly one fate, and the hosts
// receive exactly the delivered ones), and the trace must stay causally
// ordered (timestamps never run backwards). TTLs vary so that some packets
// expire on either leg, and one packet heads for an address nobody holds.
func FuzzImpairments(f *testing.F) {
	f.Add(int64(1), uint16(200), uint16(100), uint16(300), uint16(5), uint8(20))
	f.Add(int64(7), uint16(1000), uint16(0), uint16(0), uint16(0), uint8(5))
	f.Add(int64(42), uint16(0), uint16(1000), uint16(1000), uint16(50), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, loss, dup, reorder, jitterMs uint16, npkts uint8) {
		prof := Profile{
			Loss:      float64(loss%1001) / 1000,
			Duplicate: float64(dup%1001) / 1000,
			Reorder:   float64(reorder%1001) / 1000,
			Jitter:    time.Duration(jitterMs%100) * time.Millisecond,
		}
		c := &recordHost{addr: clientAddr}
		s := &recordHost{addr: serverAddr}
		n := New(c, s)
		n.Trace = &Trace{}
		n.SetImpairments(Symmetric(prof), rand.New(rand.NewSource(seed)))
		sends := int(npkts)%64 + 1
		for i := 0; i < sends; i++ {
			// 5 hops on each side of the censor: TTLs below 5 expire
			// before it, 5 to 9 after it, and 10 or more arrive.
			p := syn(uint8(2 + (int(seed)+3*i)&15))
			p.TCP.Seq = uint32(i)
			if i%2 == 0 {
				n.Send(c, p)
			} else {
				p.IP.Src, p.IP.Dst = serverAddr, clientAddr
				n.Send(s, p)
			}
		}
		stray := syn(64)
		stray.IP.Src, stray.IP.Dst = serverAddr, netip.MustParseAddr("10.9.9.9")
		n.Send(s, stray)
		sends += 2 // the stray and the timer's send
		// A couple of timers riding alongside, like retransmission would.
		n.After(3*time.Millisecond, func() {})
		n.After(time.Millisecond, func() { n.Send(c, syn(64)) })
		if n.Run(10000) >= 10000 {
			t.Fatal("impairment scheduler did not quiesce")
		}
		var count [len(events)]int
		last := time.Duration(-1)
		for i, e := range n.Trace.Entries {
			count[e.Event]++
			if e.Time < last {
				t.Fatalf("trace entry %d at %v precedes predecessor at %v: causality violated", i, e.Time, last)
			}
			last = e.Time
		}
		in := sends + count[EventDuplicated] + count[EventInjected]
		out := 0
		for ev, k := range count {
			if Event(ev).fate() {
				out += k
			}
		}
		if in != out {
			t.Fatalf("%d packets in (%d sends, %d duplicates, %d injections), %d fates %v: packets invented or vanished",
				in, sends, count[EventDuplicated], count[EventInjected], out, count)
		}
		if got := len(c.got) + len(s.got); got != count[EventDelivered] {
			t.Fatalf("hosts received %d packets, trace delivered %d", got, count[EventDelivered])
		}
	})
}
