package tcpstack

import (
	"math/rand"
	"testing"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// firing is one OnTimer call.
type firing struct {
	conn *Conn
	arg  int
	at   time.Duration
}

// timerLog is an application-timer target that records its firings.
type timerLog struct{ fired []firing }

func (l *timerLog) OnTimer(c *Conn, arg int) {
	l.fired = append(l.fired, firing{conn: c, arg: arg, at: c.Now()})
}

// recyclingClient returns a client endpoint that recycles finished
// connections, on a network whose censor hop drops every client packet.
func recyclingClient() (*Endpoint, *netsim.Network) {
	client := NewEndpoint(clientAddr, DefaultClient, rand.New(rand.NewSource(1)))
	server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(2)))
	client.ReleaseClosed = true
	n := netsim.New(client, server, &blackhole{dir: netsim.ToServer})
	client.Attach(n)
	server.Attach(n)
	return client, n
}

// TestAppTimerDiesWithItsTenant: an application timer armed on a
// connection that finishes, and whose struct is recycled onto a new flow,
// never fires — neither into the new tenant's own timer nor at all.
func TestAppTimerDiesWithItsTenant(t *testing.T) {
	for _, rearm := range []bool{false, true} {
		client, n := recyclingClient()
		log := &timerLog{}
		old := client.Connect(serverAddr, 80, &testApp{})
		old.After(10*time.Millisecond, log, 1)
		old.Close() // SYN_SENT: finishes at once, and the struct is recycled
		fresh := client.Connect(serverAddr, 80, &testApp{})
		if fresh != old || fresh.Flow() == (packet.Flow{}) {
			t.Fatal("the new flow did not reuse the finished connection's struct")
		}
		if rearm {
			fresh.After(20*time.Millisecond, log, 2)
		}
		n.Run(0)
		want := 0
		if rearm {
			want = 1
		}
		if len(log.fired) != want {
			t.Fatalf("rearm=%v: %d timers fired %+v, want %d", rearm, len(log.fired), log.fired, want)
		}
		if rearm {
			if f := log.fired[0]; f.arg != 2 || f.at != 20*time.Millisecond || f.conn != fresh {
				t.Fatalf("the new tenant's timer fired as %+v, want arg 2 at 20ms", f)
			}
		}
	}
}

// TestAppTimerRearmReplaces: a connection has one application timer, so
// arming it again before it fires replaces the pending one.
func TestAppTimerRearmReplaces(t *testing.T) {
	client, n := recyclingClient()
	log := &timerLog{}
	c := client.Connect(serverAddr, 80, &testApp{})
	c.After(10*time.Millisecond, log, 1)
	c.After(30*time.Millisecond, log, 2)
	n.Run(0)
	if len(log.fired) != 1 || log.fired[0].arg != 2 || log.fired[0].at != 30*time.Millisecond {
		t.Fatalf("fired %+v, want only arg 2 at 30ms", log.fired)
	}
}

// TestStaleRetransmitTimerIgnored: a retransmission timer armed for a
// connection that finishes, and whose struct is recycled onto a new flow,
// does not retransmit the new flow's SYN; the new flow retransmits on its
// own schedule.
func TestStaleRetransmitTimerIgnored(t *testing.T) {
	client, n := recyclingClient()
	client.Retransmit = true
	n.Trace = &netsim.Trace{}
	old := client.Connect(serverAddr, 80, &testApp{}) // arms its timer for initialRTO
	old.Close()
	const later = 50 * time.Millisecond
	n.Clock.Advance(later)
	fresh := client.Connect(serverAddr, 80, &testApp{})
	if fresh != old {
		t.Fatal("the new flow did not reuse the finished connection's struct")
	}
	port := fresh.Flow().SrcPort // the struct is recycled again once it gives up
	n.Run(0)
	var syns []time.Duration
	for _, e := range n.Trace.Entries {
		if e.Pkt.TCP.Flags == packet.FlagSYN && e.Pkt.TCP.SrcPort == port {
			syns = append(syns, e.Time)
		}
	}
	if len(syns) != 1+maxRetries {
		t.Fatalf("the new flow sent %d SYNs, want %d", len(syns), 1+maxRetries)
	}
	// Each SYN is traced one link delay after it was sent.
	if first := syns[1] - syns[0]; first != initialRTO {
		t.Fatalf("the new flow's first retransmission came %v after its SYN, want %v", first, initialRTO)
	}
}
