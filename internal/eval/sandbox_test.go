package eval

import (
	"net/netip"
	"testing"

	"geneva/internal/core"
	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/strategies"
	"geneva/internal/tcpstack"
)

// TestSandboxPins checks the sandbox's strategy table: a slot's packets
// pass through unchanged until Pin chooses an arm for it, Reset clears
// every pin, and each arm's engine is kept across a Reset whose strategy
// prints the same (parsed anew, so another pointer) and rebuilt when the
// text at its position changes, by an edit or by a change of order.
func TestSandboxPins(t *testing.T) {
	s1, _ := strategies.ByNumber(1)   // SYN+ACK becomes RST, SYN
	s11, _ := strategies.ByNumber(11) // SYN+ACK becomes flagless, SYN+ACK
	s8, _ := strategies.ByNumber(8)
	addrs := []netip.Addr{RoutedClientAddr(CountryChina, 0), RoutedClientAddr(CountryChina, 1)}
	var sb Sandbox
	reset := func(strats ...*core.Strategy) []*core.Engine {
		sb.Reset(CountryNone, addrs, tcpstack.DefaultClient, strats, netsim.Impairments{}, Seeds{Arms: 7})
		engines := make([]*core.Engine, len(strats))
		for a := range strats {
			engines[a] = sb.arms[a].engine
		}
		return engines
	}
	// flags sends a SYN+ACK to slot's address through the server's
	// Outbound and returns the flags of what goes on the wire.
	flags := func(slot int) []uint8 {
		p := packet.New(ServerAddr, addrs[slot], 80, 40000)
		p.TCP.Flags = packet.FlagSYN | packet.FlagACK
		out := sb.Server.Outbound(p)
		if len(out) == 1 && out[0] != p {
			t.Fatalf("slot %d: a one-packet result is not the packet sent", slot)
		}
		var fl []uint8
		for _, q := range out {
			fl = append(fl, q.TCP.Flags)
		}
		return fl
	}
	passed := func(slot int) bool {
		fl := flags(slot)
		return len(fl) == 1 && fl[0] == packet.FlagSYN|packet.FlagACK
	}

	first := reset(s1.Parse(), s11.Parse())
	for slot := range addrs {
		if !passed(slot) {
			t.Errorf("unpinned slot %d: %v, want the SYN+ACK unchanged", slot, flags(slot))
		}
	}
	sb.Pin(0, 0)
	sb.Pin(1, 1)
	if fl := flags(0); len(fl) != 2 || fl[0] != packet.FlagRST {
		t.Errorf("slot 0 pinned to Strategy 1: %v, want RST then SYN", fl)
	}
	if fl := flags(1); len(fl) != 2 || fl[0] != 0 {
		t.Errorf("slot 1 pinned to Strategy 11: %v, want a flagless packet then the SYN+ACK", fl)
	}
	sb.Pin(1, 0)
	if fl := flags(1); len(fl) != 2 || fl[0] != packet.FlagRST {
		t.Errorf("slot 1 re-pinned to Strategy 1: %v, want RST then SYN", fl)
	}

	kept := reset(s1.Parse(), s11.Parse())
	for slot := range addrs {
		if !passed(slot) {
			t.Errorf("slot %d after Reset: %v, want its pin cleared", slot, flags(slot))
		}
	}
	for a := range kept {
		if kept[a] != first[a] {
			t.Errorf("arm %d printing the same was rebuilt", a)
		}
	}

	edited := reset(s1.Parse(), s8.Parse())
	if edited[0] != first[0] {
		t.Error("arm 0 printing the same was rebuilt beside an edited arm 1")
	}
	if edited[1] == first[1] || edited[1].Strategy.String() != s8.Parse().String() {
		t.Error("arm 1's text changed, but its engine was kept")
	}

	swapped := reset(s8.Parse(), s1.Parse())
	for a, was := range edited {
		if swapped[a] == was {
			t.Errorf("the arms changed order, but arm %d's engine was kept", a)
		}
	}
	sb.Pin(0, 1)
	if fl := flags(0); len(fl) != 2 || fl[0] != packet.FlagRST {
		t.Errorf("slot 0 pinned to arm 1 (Strategy 1) after the swap: %v, want RST then SYN", fl)
	}
}
