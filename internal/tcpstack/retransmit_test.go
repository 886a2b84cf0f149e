package tcpstack

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// dropFirst is an in-path box that drops the first packet matching flags in
// the given direction, once.
type dropFirst struct {
	dir     netsim.Direction
	flags   uint8
	payload bool // require a payload too
	dropped bool
}

func (b *dropFirst) Name() string { return "drop-first" }
func (b *dropFirst) Process(p *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	if b.dropped || dir != b.dir {
		return netsim.Verdict{}
	}
	if p.TCP.Flags&b.flags != b.flags || (b.payload && len(p.TCP.Payload) == 0) {
		return netsim.Verdict{}
	}
	b.dropped = true
	return netsim.Verdict{Drop: true, Note: "dropped by test box"}
}

// blackhole drops everything in one direction.
type blackhole struct{ dir netsim.Direction }

func (b *blackhole) Name() string { return "blackhole" }
func (b *blackhole) Process(p *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	return netsim.Verdict{Drop: dir == b.dir}
}

func retransmitRig(boxes ...netsim.Middlebox) (*Endpoint, *Endpoint, *netsim.Network, *testApp, *testApp) {
	srvApp := &testApp{response: []byte("the response body")}
	client := NewEndpoint(clientAddr, DefaultClient, rand.New(rand.NewSource(1)))
	server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(2)))
	client.Retransmit = true
	server.Retransmit = true
	server.NewServerApp = func(*Conn) App { return srvApp }
	server.Listen(80)
	n := netsim.New(client, server, boxes...)
	client.Attach(n)
	server.Attach(n)
	cliApp := &testApp{request: []byte("the request")}
	return client, server, n, cliApp, srvApp
}

// TestRetransmitRecoversLostSyn: a dropped SYN is retransmitted and the
// transfer still completes.
func TestRetransmitRecoversLostSyn(t *testing.T) {
	client, _, n, cliApp, srvApp := retransmitRig(&dropFirst{dir: netsim.ToServer, flags: packet.FlagSYN})
	client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	if !bytes.Equal(srvApp.data, []byte("the request")) || !bytes.Equal(cliApp.data, []byte("the response body")) {
		t.Fatalf("transfer incomplete after SYN loss: srv=%q cli=%q", srvApp.data, cliApp.data)
	}
}

// TestRetransmitRecoversLostData: a dropped data segment in either
// direction is recovered.
func TestRetransmitRecoversLostData(t *testing.T) {
	for _, dir := range []netsim.Direction{netsim.ToServer, netsim.ToClient} {
		client, _, n, cliApp, srvApp := retransmitRig(&dropFirst{dir: dir, flags: packet.FlagPSH, payload: true})
		client.Connect(serverAddr, 80, cliApp)
		n.Run(0)
		if !bytes.Equal(srvApp.data, []byte("the request")) || !bytes.Equal(cliApp.data, []byte("the response body")) {
			t.Fatalf("%v: transfer incomplete after data loss: srv=%q cli=%q", dir, srvApp.data, cliApp.data)
		}
	}
}

// TestRetransmitRecoversLostSynAck: the server retransmits a lost SYN+ACK.
func TestRetransmitRecoversLostSynAck(t *testing.T) {
	client, _, n, cliApp, srvApp := retransmitRig(&dropFirst{dir: netsim.ToClient, flags: packet.FlagSYN | packet.FlagACK})
	client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	if !bytes.Equal(srvApp.data, []byte("the request")) || !bytes.Equal(cliApp.data, []byte("the response body")) {
		t.Fatalf("transfer incomplete after SYN+ACK loss: srv=%q cli=%q", srvApp.data, cliApp.data)
	}
}

// TestRetransmitGivesUpCleanly: against a total blackhole, the client
// retransmits its SYN a bounded number of times, then aborts with a clean
// (non-reset) close; the network quiesces.
func TestRetransmitGivesUpCleanly(t *testing.T) {
	client, _, n, cliApp, _ := retransmitRig(&blackhole{dir: netsim.ToServer})
	n.Trace = &netsim.Trace{}
	conn := client.Connect(serverAddr, 80, cliApp)
	processed := n.Run(0)
	if !n.Quiet() {
		t.Fatal("network never quiesced against a blackhole")
	}
	if processed >= 100000 {
		t.Fatalf("runaway retransmission: %d events", processed)
	}
	if !cliApp.closed || cliApp.reset {
		t.Errorf("want a clean abort: closed=%v reset=%v", cliApp.closed, cliApp.reset)
	}
	if conn.State() != StateClosed {
		t.Errorf("connection state = %v, want CLOSED", conn.State())
	}
	// 1 original + MaxRetries retransmissions, all dropped at the censor hop.
	syns := 0
	for _, e := range n.Trace.Entries {
		if e.Dir == netsim.ToServer && e.Pkt.TCP.Flags == packet.FlagSYN {
			syns++
		}
	}
	if want := 1 + maxRetries; syns != want {
		t.Errorf("observed %d SYNs, want %d (1 + MaxRetries)", syns, want)
	}
}

// TestNoRetransmissionWhenDisabled locks the historical contract: with the
// zero-value policy, a lost packet is simply lost — no timer fires, no
// retransmission happens, and the network goes quiet immediately.
func TestNoRetransmissionWhenDisabled(t *testing.T) {
	srvApp := &testApp{response: []byte("resp")}
	client, _, n := rig(t, DefaultClient, func(*Conn) App { return srvApp })
	box := &dropFirst{dir: netsim.ToServer, flags: packet.FlagSYN}
	// rig() has no boxes; rebuild with the dropper.
	client = NewEndpoint(clientAddr, DefaultClient, rand.New(rand.NewSource(1)))
	server := NewEndpoint(serverAddr, DefaultServer, rand.New(rand.NewSource(2)))
	server.NewServerApp = func(*Conn) App { return srvApp }
	server.Listen(80)
	n = netsim.New(client, server, box)
	client.Attach(n)
	server.Attach(n)
	cliApp := &testApp{request: []byte("req")}
	client.Connect(serverAddr, 80, cliApp)
	if got := n.Run(0); got != 1 {
		t.Errorf("processed %d events, want 1 (the dropped SYN, nothing after)", got)
	}
	if cliApp.established || len(srvApp.data) != 0 {
		t.Error("connection progressed despite the dropped SYN and no retransmission")
	}
}

// TestRetransmitBackoffDoubles: consecutive SYN retransmissions against a
// blackhole are spaced at RTO, 2·RTO, 4·RTO, ...
func TestRetransmitBackoffDoubles(t *testing.T) {
	client, _, n, cliApp, _ := retransmitRig(&blackhole{dir: netsim.ToServer})
	n.Trace = &netsim.Trace{}
	client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	var times []time.Duration
	for _, e := range n.Trace.Entries {
		if e.Dir == netsim.ToServer && e.Pkt.TCP.Flags == packet.FlagSYN {
			times = append(times, e.Time)
		}
	}
	rto := initialRTO
	for i := 1; i < len(times); i++ {
		want := rto << (i - 1)
		if gap := times[i] - times[i-1]; gap != want {
			t.Errorf("retransmission %d after %v, want %v", i, gap, want)
		}
	}
}

// TestRetransmissionsReenterOutbound: a retransmitted segment passes through
// the Outbound hook again, exactly like a kernel retransmit re-entering
// NFQueue.
func TestRetransmissionsReenterOutbound(t *testing.T) {
	client, server, n, cliApp, srvApp := retransmitRig(&dropFirst{dir: netsim.ToClient, flags: packet.FlagSYN | packet.FlagACK})
	synAcks := 0
	server.Outbound = func(p *packet.Packet) []*packet.Packet {
		if p.TCP.Flags == packet.FlagSYN|packet.FlagACK {
			synAcks++
		}
		return []*packet.Packet{p}
	}
	client.Connect(serverAddr, 80, cliApp)
	n.Run(0)
	if synAcks < 2 {
		t.Errorf("Outbound saw %d SYN+ACKs, want ≥2 (original + retransmission)", synAcks)
	}
	if !bytes.Equal(srvApp.data, []byte("the request")) {
		t.Error("transfer failed")
	}
}
