package packet

import (
	"fmt"
	"net/netip"
)

// Packet is the unit the simulator, the Geneva engine, and the censors all
// exchange: an IPv4 header plus its TCP segment, kept in structured form so
// tampering is cheap and lossless. Wire() produces the exact byte
// serialization when a component (checksum validation, DPI over raw bytes)
// needs it.
type Packet struct {
	IP  IPv4
	TCP TCP
}

// New builds a minimally valid TCP/IPv4 packet between two endpoints.
func New(src, dst netip.Addr, srcPort, dstPort uint16) *Packet {
	return &Packet{
		IP: IPv4{
			TTL:      64,
			Protocol: ProtoTCP,
			Src:      src,
			Dst:      dst,
		},
		TCP: TCP{SrcPort: srcPort, DstPort: dstPort, Window: 65535},
	}
}

// Clone deep-copies the packet, including options and payload, so tampering
// with the copy never aliases the original. The Geneva duplicate action and
// every censor tap rely on this.
func (p *Packet) Clone() *Packet {
	q := *p
	q.IP.Options = append([]byte(nil), p.IP.Options...)
	q.TCP.Payload = append([]byte(nil), p.TCP.Payload...)
	q.TCP.Options = make([]Option, len(p.TCP.Options))
	for i, o := range p.TCP.Options {
		q.TCP.Options[i] = Option{Kind: o.Kind, Data: append([]byte(nil), o.Data...)}
	}
	return &q
}

// Wire serializes the packet to IPv4 bytes (recomputing lengths and
// checksums subject to the Raw flags).
func (p *Packet) Wire() ([]byte, error) {
	return p.AppendWire(make([]byte, 0, p.IP.HeaderLen()+p.TCP.HeaderLen()+len(p.TCP.Payload)))
}

// AppendWire appends the packet's wire serialization to buf and returns the
// extended slice, allocating only if buf lacks capacity. The TCP segment is
// serialized directly after the IP header in the same buffer, so a warm
// buffer makes the whole round-trip allocation-free.
func (p *Packet) AppendWire(buf []byte) ([]byte, error) {
	segLen := p.TCP.HeaderLen() + len(p.TCP.Payload)
	buf, err := p.IP.appendHeader(buf, segLen)
	if err != nil {
		return nil, err
	}
	// appendHeader already rejected non-4-byte addresses.
	src, dst := p.IP.Src.As4(), p.IP.Dst.As4()
	return p.TCP.MarshalAppend(buf, src[:], dst[:])
}

// Parse decodes an IPv4/TCP packet from wire bytes.
func Parse(data []byte) (*Packet, error) {
	var p Packet
	if err := ParseInto(&p, data); err != nil {
		return nil, err
	}
	return &p, nil
}

// ParseInto decodes wire bytes into p, reusing p's option and payload
// buffers when they have capacity. Parsing into a recycled packet therefore
// does not allocate. On error p is left partially filled.
func ParseInto(p *Packet, data []byte) error {
	payload, err := p.IP.Unmarshal(data)
	if err != nil {
		return err
	}
	if p.IP.Protocol != ProtoTCP {
		return fmt.Errorf("%w: protocol %d is not TCP", ErrBadHeader, p.IP.Protocol)
	}
	return p.TCP.Unmarshal(payload)
}

// TCPChecksumValid reports whether the TCP checksum is correct. Endpoint
// stacks drop packets failing this; the censors in this paper do not check
// it, which is what makes checksum-corrupted insertion packets work (§7).
func (p *Packet) TCPChecksumValid() bool {
	if p.IP.Src.Is4() && p.IP.Dst.Is4() {
		src, dst := p.IP.Src.As4(), p.IP.Dst.As4()
		return p.TCP.ChecksumValid(src[:], dst[:])
	}
	src, dst := p.IP.Src.As16(), p.IP.Dst.As16()
	return p.TCP.ChecksumValid(src[:], dst[:])
}

// Flow returns the packet's 4-tuple in src->dst orientation.
func (p *Packet) Flow() Flow {
	return Flow{
		SrcAddr: p.IP.Src, DstAddr: p.IP.Dst,
		SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort,
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s | %s", p.IP.String(), p.TCP.String())
}

// Flow is a hashable TCP 4-tuple. Reverse gives the other direction;
// Canonical gives a direction-independent key for censors that track both
// directions in one TCB.
type Flow struct {
	SrcAddr, DstAddr netip.Addr
	SrcPort, DstPort uint16
}

// Reverse returns the flow with src and dst swapped.
func (f Flow) Reverse() Flow {
	return Flow{SrcAddr: f.DstAddr, DstAddr: f.SrcAddr, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// Canonical returns the same value for a flow and its reverse, ordering the
// endpoints lexicographically.
func (f Flow) Canonical() Flow {
	if f.SrcAddr.Compare(f.DstAddr) > 0 ||
		(f.SrcAddr == f.DstAddr && f.SrcPort > f.DstPort) {
		return f.Reverse()
	}
	return f
}

func (f Flow) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", f.SrcAddr, f.SrcPort, f.DstAddr, f.DstPort)
}
