package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	p := New(addrA, addrB, 40001, 80)
	p.TCP.Flags = FlagPSH | FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 2000
	p.TCP.Payload = []byte("GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n")
	return p
}

func TestPacketWireParseRoundtrip(t *testing.T) {
	in := samplePacket()
	wire, err := in.Wire()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.IP.Src != in.IP.Src || out.TCP.DstPort != 80 {
		t.Errorf("roundtrip mismatch: %s", out)
	}
	if !bytes.Equal(out.TCP.Payload, in.TCP.Payload) {
		t.Errorf("payload = %q", out.TCP.Payload)
	}
	if !out.TCPChecksumValid() {
		t.Error("TCP checksum invalid after roundtrip")
	}
}

func TestParseRejectsNonTCP(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: addrA, Dst: addrB}
	wire, _ := ip.Marshal([]byte{0, 53, 0, 53, 0, 8, 0, 0})
	if _, err := Parse(wire); err == nil {
		t.Error("Parse accepted a UDP packet")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := samplePacket()
	in.TCP.Options = []Option{{Kind: OptMSS, Data: []byte{1, 2}}}
	c := in.Clone()
	c.TCP.Payload[0] = 'X'
	c.TCP.Options[0].Data[0] = 99
	c.TCP.Flags = FlagRST
	c.IP.TTL = 1
	if in.TCP.Payload[0] == 'X' {
		t.Error("payload aliased")
	}
	if in.TCP.Options[0].Data[0] == 99 {
		t.Error("option data aliased")
	}
	if in.TCP.Flags == FlagRST || in.IP.TTL == 1 {
		t.Error("scalar fields shared")
	}
}

func TestFlowReverseAndCanonical(t *testing.T) {
	f := Flow{SrcAddr: addrA, DstAddr: addrB, SrcPort: 1234, DstPort: 80}
	r := f.Reverse()
	if r.SrcAddr != addrB || r.DstPort != 1234 {
		t.Errorf("Reverse = %s", r)
	}
	if f.Canonical() != r.Canonical() {
		t.Error("Canonical differs between a flow and its reverse")
	}
	if f.Reverse().Reverse() != f {
		t.Error("double Reverse is not identity")
	}
}

func TestFlowCanonicalSameAddrOrdersPorts(t *testing.T) {
	f := Flow{SrcAddr: addrA, DstAddr: addrA, SrcPort: 9000, DstPort: 80}
	c := f.Canonical()
	if c.SrcPort != 80 {
		t.Errorf("Canonical src port = %d, want 80", c.SrcPort)
	}
}

func TestBadChecksumInsertionPacketDetected(t *testing.T) {
	p := samplePacket()
	p.TCP.Checksum = 0x1111
	p.TCP.RawChecksum = true
	wire, err := p.Wire()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.TCPChecksumValid() {
		t.Error("insertion packet's corrupt checksum validated")
	}
}

func TestPacketRoundtripProperty(t *testing.T) {
	f := func(sp, dp uint16, seq uint32, flags uint8, payload []byte) bool {
		in := New(addrA, addrB, sp, dp)
		in.TCP.Seq = seq
		in.TCP.Flags = flags & 0x3f
		in.TCP.Payload = payload
		wire, err := in.Wire()
		if err != nil {
			return false
		}
		out, err := Parse(wire)
		if err != nil {
			return false
		}
		return out.TCP.SrcPort == sp && out.TCP.DstPort == dp &&
			out.TCP.Seq == seq && out.TCP.Flags == flags&0x3f &&
			bytes.Equal(out.TCP.Payload, payload) && out.TCPChecksumValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
