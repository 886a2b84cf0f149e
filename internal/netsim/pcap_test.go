package netsim

import (
	"bytes"
	"testing"
	"time"

	"geneva/internal/packet"
)

func TestPcapRoundtrip(t *testing.T) {
	tr := &Trace{}
	p1 := packet.New(clientAddr, serverAddr, 40000, 80)
	p1.TCP.Flags = packet.FlagSYN
	p2 := packet.New(serverAddr, clientAddr, 80, 40000)
	p2.TCP.Flags = packet.FlagSYN | packet.FlagACK
	p2.TCP.Payload = []byte("x")
	tr.add(TraceEntry{Time: 1500 * time.Microsecond, Dir: ToServer, Pkt: p1, Event: EventDelivered})
	tr.add(TraceEntry{Time: 2*time.Second + 3*time.Microsecond, Dir: ToClient, Pkt: p2, Event: EventDelivered})

	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("read %d packets, want 2", len(pkts))
	}
	// The raw bytes must parse back into the same packets.
	got1, err := packet.Parse(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	if got1.TCP.Flags != packet.FlagSYN || got1.IP.Src != clientAddr {
		t.Errorf("first packet mismatch: %s", got1)
	}
	got2, err := packet.Parse(pkts[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(got2.TCP.Payload) != "x" {
		t.Errorf("second packet payload %q", got2.TCP.Payload)
	}
}

func TestPcapFromLiveTrace(t *testing.T) {
	c := &recordHost{addr: clientAddr}
	s := &recordHost{addr: serverAddr, reply: true}
	n := New(c, s)
	n.Trace = &Trace{}
	n.Send(c, syn(64))
	n.Run(0)
	var buf bytes.Buffer
	if err := n.Trace.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 2 {
		t.Fatalf("capture has %d packets", len(pkts))
	}
	// Header sanity: magic + linktype RAW.
	raw := buf.Bytes()
	_ = raw
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadPcap(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}
