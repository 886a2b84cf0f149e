package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"geneva/internal/packet"
)

// scratch is the one pair of backing arrays every reuseBox sharing it
// injects from: each Process call truncates and refills it, as the censors'
// scratch does.
type scratch struct {
	toClient, toServer []*packet.Packet
	next               uint32 // the next injection's number, carried in Seq
}

// reuseBox answers every packet with two injections toward the client and
// one toward the server, all from its shared scratch.
type reuseBox struct {
	name string
	s    *scratch
}

func (b *reuseBox) Name() string { return b.name }

func (b *reuseBox) Process(pkt *packet.Packet, dir Direction, now time.Duration) Verdict {
	s := b.s
	s.toClient, s.toServer = s.toClient[:0], s.toServer[:0]
	s.toClient = append(s.toClient, s.rst(serverAddr, clientAddr), s.rst(serverAddr, clientAddr))
	s.toServer = append(s.toServer, s.rst(clientAddr, serverAddr))
	return Verdict{InjectToClient: s.toClient, InjectToServer: s.toServer}
}

// rst fabricates the next numbered RST from src to dst.
func (s *scratch) rst(src, dst netip.Addr) *packet.Packet {
	s.next++
	p := packet.Get(src, dst, 0, 0)
	p.TCP.Flags = packet.FlagRST
	p.TCP.Seq = s.next
	return p
}

// rstHost records the numbers of the RSTs it receives; it keeps no packet.
type rstHost struct {
	addr netip.Addr
	got  []uint32
}

func (h *rstHost) Addr() netip.Addr { return h.addr }

func (h *rstHost) Receive(_ *Network, pkt *packet.Packet) {
	if pkt.TCP.Flags&packet.FlagRST != 0 {
		h.got = append(h.got, pkt.TCP.Seq)
	}
}

// TestVerdictBorrowsBoxScratch checks the borrow rule from the network's
// side: a verdict's injection slices are valid only until the next Process
// call, so the network must enqueue them before it calls any box again.
// Two boxes share one scratch that each Process call overwrites, and each
// of four packets passes both. Every injection must still reach its
// endpoint exactly once, in the order the boxes made them, with Trace nil
// and with Trace set, and the trace must record each injection once, in
// that order. make pool-safety runs it under GODEBUG=clobberfree=1.
func TestVerdictBorrowsBoxScratch(t *testing.T) {
	// The boxes number injections 1, 2 toward the client and 3 toward the
	// server for the first call, 4, 5 and 6 for the second, and so on.
	var wantClient, wantServer []uint32
	for k := uint32(1); k <= 4*2*3; k += 3 {
		wantClient = append(wantClient, k, k+1)
		wantServer = append(wantServer, k+2)
	}
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("trace=%v", traced), func(t *testing.T) {
			s := &scratch{}
			c := &rstHost{addr: clientAddr}
			srv := &rstHost{addr: serverAddr}
			n := New(c, srv, &reuseBox{name: "a", s: s}, &reuseBox{name: "b", s: s})
			n.RecyclePackets = true
			if traced {
				n.Trace = &Trace{}
			}
			for i := 0; i < 4; i++ {
				p := packet.Get(clientAddr, serverAddr, 40000, 80)
				p.TCP.Flags = packet.FlagACK
				n.Send(c, p)
			}
			n.Run(0)
			if !slices.Equal(c.got, wantClient) {
				t.Errorf("client got injections %v, want %v", c.got, wantClient)
			}
			if !slices.Equal(srv.got, wantServer) {
				t.Errorf("server got injections %v, want %v", srv.got, wantServer)
			}
			if !traced {
				return
			}
			var injected []uint32
			for _, e := range n.Trace.Entries {
				if e.Event == EventInjected {
					injected = append(injected, e.Pkt.TCP.Seq)
				}
			}
			var want []uint32
			for k := uint32(1); k <= 4*2*3; k++ {
				want = append(want, k)
			}
			if !slices.Equal(injected, want) {
				t.Errorf("trace recorded injections %v, want %v", injected, want)
			}
		})
	}
}
