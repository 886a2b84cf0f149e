package main

import (
	"net/netip"
	"time"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/tcpstack"
)

// The wrappers below put a span around one layer boundary each. A replay
// installs them only when it traces; untraced, it wires the layers directly.

// connKey is a connection's client side: address and ephemeral port.
type connKey struct {
	addr netip.Addr
	port uint16
}

// connIndex maps the client side of each connection of a sampled cell or
// trial to the connection's id. A nil index (unsampled) yields -1.
type connIndex map[connKey]int

func (ix connIndex) ofPacket(pkt *packet.Packet, dir netsim.Direction) int {
	if ix == nil {
		return -1
	}
	k := connKey{pkt.IP.Src, pkt.TCP.SrcPort}
	if dir == netsim.ToClient {
		k = connKey{pkt.IP.Dst, pkt.TCP.DstPort}
	}
	if id, ok := ix[k]; ok {
		return id
	}
	return -1
}

func (ix connIndex) ofConn(c *tcpstack.Conn) int {
	if ix == nil {
		return -1
	}
	f := c.Flow()
	k := connKey{f.SrcAddr, f.SrcPort}
	if f.SrcAddr == eval.ServerAddr {
		k = connKey{f.DstAddr, f.DstPort}
	}
	if id, ok := ix[k]; ok {
		return id
	}
	return -1
}

// note records a freshly connected client's id.
func (ix connIndex) note(c *tcpstack.Conn, id int) {
	if ix != nil {
		f := c.Flow()
		ix[connKey{f.SrcAddr, f.SrcPort}] = id
	}
}

// tracedBox spans a censor's Process.
type tracedBox struct {
	netsim.Middlebox
	t   *tracer
	k   kind
	ids connIndex
}

func (b *tracedBox) Process(pkt *packet.Packet, dir netsim.Direction, now time.Duration) netsim.Verdict {
	b.t.begin(b.k, b.ids.ofPacket(pkt, dir))
	v := b.Middlebox.Process(pkt, dir, now)
	b.t.end()
	return v
}

// tracedHost spans a client endpoint's Receive. Only clients can be
// wrapped: Network.Send tells direction by comparing the sender with the
// server Host it was built with, and the server endpoint passes itself.
type tracedHost struct {
	*tcpstack.Endpoint
	t   *tracer
	ids connIndex
}

func (h *tracedHost) Receive(n *netsim.Network, pkt *packet.Packet) {
	h.t.begin(kClientRx, h.ids.ofPacket(pkt, netsim.ToClient))
	h.Endpoint.Receive(n, pkt)
	h.t.end()
}

// tracedApp spans every callback of an application.
type tracedApp struct {
	s   tcpstack.App
	t   *tracer
	ids connIndex
}

func (a *tracedApp) OnEstablished(c *tcpstack.Conn) {
	a.t.begin(kApp, a.ids.ofConn(c))
	a.s.OnEstablished(c)
	a.t.end()
}

func (a *tracedApp) OnData(c *tcpstack.Conn, data []byte) {
	a.t.begin(kApp, a.ids.ofConn(c))
	a.s.OnData(c, data)
	a.t.end()
}

func (a *tracedApp) OnClose(c *tcpstack.Conn, reset bool) {
	a.t.begin(kApp, a.ids.ofConn(c))
	a.s.OnClose(c, reset)
	a.t.end()
}

// appFor returns the App to hand the stack for application s: s itself
// when untraced.
func appFor(t *tracer, ids connIndex, s tcpstack.App) tcpstack.App {
	if t == nil {
		return s
	}
	return &tracedApp{s: s, t: t, ids: ids}
}

// hostFor returns the Host to attach for client endpoint ep.
func hostFor(t *tracer, ids connIndex, ep *tcpstack.Endpoint) netsim.Host {
	if t == nil {
		return ep
	}
	return &tracedHost{Endpoint: ep, t: t, ids: ids}
}

// boxFor returns the Middlebox to attach for a country's censor.
func boxFor(t *tracer, ids connIndex, country string, cen netsim.Middlebox) netsim.Middlebox {
	if t == nil {
		return cen
	}
	return &tracedBox{Middlebox: cen, t: t, k: censorKind(country), ids: ids}
}

// outboundFor spans the server's Outbound hook and counts what it emits.
func outboundFor(t *tracer, ids connIndex, out func(*packet.Packet) []*packet.Packet) func(*packet.Packet) []*packet.Packet {
	if t == nil {
		return out
	}
	return func(p *packet.Packet) []*packet.Packet {
		t.begin(kOutbound, ids.ofPacket(p, netsim.ToClient))
		r := out(p)
		t.end()
		t.emitted += int64(len(r))
		return r
	}
}
