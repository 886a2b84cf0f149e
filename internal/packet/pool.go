package packet

import (
	"net/netip"
	"sync"
)

// The trial hot path (serialize -> impair -> censor -> deliver) used to
// allocate a fresh Packet per hop and a fresh byte slice per serialization.
// This file gives the packet layer a recycled lifecycle instead:
//
//	p := packet.Get(...)   // pooled packet, initialized like New
//	...                    // travels through the simulator
//	packet.Put(p)          // terminal point relinquishes it
//
// Ownership contract: Put means the caller — and everything the caller handed
// the packet to — holds no reference to p or to any slice reachable from it
// (Payload, IP.Options, TCP.Options[i].Data). Components that need bytes
// beyond the packet's lifetime must copy them out (every endpoint, censor,
// and app in this repo already does) or take a Clone(), which remains the
// deep-copy escape hatch and never shares buffers.
//
// Recycling is opt-in at the simulator layer (netsim.Network.RecyclePackets):
// code that drives a Network directly and retains delivered packets keeps the
// old allocate-and-forget behavior by default.

var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a pooled packet initialized exactly like New: a minimally
// valid TCP/IPv4 packet between two endpoints, with any buffer capacity left
// over from the packet's previous life retained for reuse.
func Get(src, dst netip.Addr, srcPort, dstPort uint16) *Packet {
	p := pktPool.Get().(*Packet)
	p.Reset()
	p.IP.TTL = 64
	p.IP.Protocol = ProtoTCP
	p.IP.Src = src
	p.IP.Dst = dst
	p.TCP.SrcPort = srcPort
	p.TCP.DstPort = dstPort
	p.TCP.Window = 65535
	return p
}

// Put recycles p. Safe on nil. See the ownership contract above: after Put
// the caller must not touch p or any slice it obtained from p.
func Put(p *Packet) {
	if p == nil {
		return
	}
	pktPool.Put(p)
}

// Reset zeroes the packet to its fresh state while keeping the allocated
// capacity of its option and payload buffers (and of each recycled option
// slot's Data) for the next use.
func (p *Packet) Reset() {
	ipOpts := p.IP.Options[:0]
	tcpOpts := p.TCP.Options[:0]
	payload := p.TCP.Payload[:0]
	*p = Packet{}
	p.IP.Options = ipOpts
	p.TCP.Options = tcpOpts
	p.TCP.Payload = payload
}

// CopyFrom deep-copies src into p, reusing p's existing buffers instead of
// allocating. p and src must be distinct packets. Afterwards p shares no
// memory with src (same guarantee Clone gives its result).
func (p *Packet) CopyFrom(src *Packet) {
	ipOpts := p.IP.Options
	tcpOpts := p.TCP.Options
	payload := p.TCP.Payload
	*p = *src
	p.IP.Options = append(ipOpts[:0], src.IP.Options...)
	p.TCP.Payload = append(payload[:0], src.TCP.Payload...)
	n := len(src.TCP.Options)
	if cap(tcpOpts) < n {
		tcpOpts = append(tcpOpts[:cap(tcpOpts)], make([]Option, n-cap(tcpOpts))...)
	}
	tcpOpts = tcpOpts[:n]
	for i := range src.TCP.Options {
		o := &src.TCP.Options[i]
		tcpOpts[i].Kind = o.Kind
		tcpOpts[i].Data = append(tcpOpts[i].Data[:0], o.Data...)
	}
	p.TCP.Options = tcpOpts
}

// ClonePooled is Clone backed by the pool: the copy is deep (no shared
// buffers) but lives on a recycled Packet, so it must eventually be Put or
// handed to a component that will.
func (p *Packet) ClonePooled() *Packet {
	q := pktPool.Get().(*Packet)
	q.CopyFrom(p)
	return q
}

// wireBufPool recycles scratch serialization buffers for callers (checksum
// validation, DPI taps) that need wire bytes only transiently.
var wireBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

func getWireBuf() *[]byte  { return wireBufPool.Get().(*[]byte) }
func putWireBuf(b *[]byte) { wireBufPool.Put(b) }
