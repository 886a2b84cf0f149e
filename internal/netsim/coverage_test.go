package netsim

import (
	"net/netip"
	"strings"
	"testing"

	"geneva/internal/packet"
)

func TestDirectionStringAndReverse(t *testing.T) {
	if ToServer.String() != "->server" || ToClient.String() != "->client" {
		t.Error("Direction.String broken")
	}
	if ToServer.Reverse() != ToClient || ToClient.Reverse() != ToServer {
		t.Error("Direction.Reverse broken")
	}
}

func TestAccessors(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr}
	box := &tapBox{name: "tap"}
	n := New(c, s, box)
	if n.Client() != c || n.Server() != s {
		t.Error("Client/Server accessors broken")
	}
	if len(n.Boxes()) != 1 || n.Boxes()[0] != box {
		t.Error("Boxes accessor broken")
	}
	if !n.Quiet() {
		t.Error("fresh network not quiet")
	}
	n.Send(c, syn(64))
	if n.Quiet() {
		t.Error("network quiet with a packet in flight")
	}
	n.Run(0)
	if !n.Quiet() {
		t.Error("network not quiet after Run")
	}
}

func TestMultiClientRouting(t *testing.T) {
	a := &recordHost{addr: clientAddr}
	b := &recordHost{addr: serverAddr} // server
	other := &recordHost{addr: mustAddr("10.1.0.9")}
	n := NewMulti(b, []Host{a, other})
	// The server replies to whichever client wrote to it.
	reply := func(to *recordHost) *packet.Packet {
		p := packet.New(serverAddr, to.addr, 80, 40000)
		p.TCP.Flags = packet.FlagACK
		return p
	}
	n.Send(b, reply(a))
	n.Send(b, reply(other))
	n.Run(0)
	if len(a.got) != 1 || len(other.got) != 1 {
		t.Errorf("routing broken: a=%d other=%d", len(a.got), len(other.got))
	}
	// A packet to nobody falls off the network.
	stray := packet.New(serverAddr, mustAddr("10.9.9.9"), 80, 1)
	stray.TCP.Flags = packet.FlagACK
	n.Trace = &Trace{}
	n.Send(b, stray)
	n.Run(0)
	found := false
	for _, e := range n.Trace.Entries {
		if e.Event == EventNoRoute {
			found = true
		}
	}
	if !found {
		t.Error("stray packet not reported as unroutable")
	}
}

func TestNewMultiRequiresClients(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMulti with no clients did not panic")
		}
	}()
	NewMulti(&recordHost{addr: serverAddr}, nil)
}

func TestTraceDeliveredFilter(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr, reply: true}
	n := New(c, s)
	n.Trace = &Trace{}
	n.Send(c, syn(64))
	n.Run(0)
	del := n.Trace.Delivered()
	if len(del) != 2 {
		t.Errorf("Delivered() = %d entries, want 2", len(del))
	}
	for _, e := range del {
		if e.Event != EventDelivered {
			t.Errorf("non-delivered entry leaked: %v", e.Event)
		}
	}
}

func TestWaterfallLabels(t *testing.T) {
	tr := &Trace{}
	mk := func(flags uint8, payload string, ev Event) {
		p := packet.New(clientAddr, serverAddr, 1, 2)
		p.TCP.Flags = flags
		p.TCP.Payload = []byte(payload)
		tr.add(TraceEntry{Dir: ToServer, Pkt: p, Event: ev})
	}
	mk(packet.FlagFIN, "x", EventDelivered)
	mk(packet.FlagRST|packet.FlagACK, "", EventDelivered)
	mk(packet.FlagFIN|packet.FlagPSH|packet.FlagACK, "page", EventDelivered)
	mk(packet.FlagURG|packet.FlagPSH, "", EventDelivered)
	mk(packet.FlagSYN, "", EventDropped)
	mk(packet.FlagSYN, "", EventExpiredBefore)
	mk(packet.FlagSYN, "", EventLost)
	mk(packet.FlagSYN, "", EventNoRoute)
	tr.add(TraceEntry{Pkt: packet.New(clientAddr, serverAddr, 1, 2), Event: EventCensor, Note: "blocked", by: "tap"})
	w := tr.Waterfall("labels")
	for _, want := range []string{
		"FIN (w/ load)", "RST/ACK", "FIN/PSH/ACK", "P/U",
		"[dropped]", "[expired]", "[lost]", "[no route]", "* tap: blocked",
	} {
		if !strings.Contains(w, want) {
			t.Errorf("waterfall missing %q:\n%s", want, w)
		}
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
