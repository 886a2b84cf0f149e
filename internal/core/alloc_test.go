package core

import (
	"math/rand"
	"net/netip"
	"testing"

	"geneva/internal/allocs"
	"geneva/internal/packet"
	"geneva/internal/race"
)

// skipUnderRace skips allocation-budget tests under -race: race
// instrumentation allocates on its own, so allocation counts are
// meaningless there. The budgets are enforced by `make alloc-budget` in CI.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets are enforced by make alloc-budget")
	}
}

func allocTestPacket(flags uint8) *packet.Packet {
	p := packet.New(
		netip.MustParseAddr("198.51.100.9"), netip.MustParseAddr("10.1.0.2"),
		80, 40000)
	p.TCP.Flags = flags
	return p
}

// TestAllocBudgetCompiledMatch pins trigger evaluation at zero allocations:
// every packet an engine sees runs the compiled matcher, so a regression
// here multiplies across the whole trial.
func TestAllocBudgetCompiledMatch(t *testing.T) {
	skipUnderRace(t)
	for _, dsl := range []string{
		"[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},send)-| \\/",
		"[TCP:dport:80]-drop-| \\/",
	} {
		s := MustParse(dsl)
		m := s.Outbound[0].Trigger.Compile()
		hit := allocTestPacket(packet.FlagSYN | packet.FlagACK)
		miss := allocTestPacket(packet.FlagRST)
		mean := allocs.Mean(10, 200, func() {
			m(hit)
			m(miss)
		})
		if mean > 0 {
			t.Errorf("%s: compiled matcher allocates %.3f objects/op, budget is 0", dsl, mean)
		}
	}
}

// TestAllocBudgetMemoizedString pins Strategy.String at zero allocations
// after the first call — the fitness cache keys on it once per evaluation.
func TestAllocBudgetMemoizedString(t *testing.T) {
	skipUnderRace(t)
	s := MustParse("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},send)-| \\/")
	_ = s.String() // populate the memo
	mean := allocs.Mean(10, 200, func() {
		_ = s.String()
	})
	if mean > 0 {
		t.Errorf("memoized String allocates %.3f objects/op, budget is 0", mean)
	}
}

// TestAllocBudgetEnginePassThrough pins the no-match path — the fate of
// almost every packet in a trial — at zero allocations.
func TestAllocBudgetEnginePassThrough(t *testing.T) {
	skipUnderRace(t)
	eng := NewEngine(
		MustParse("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},send)-| \\/"),
		rand.New(rand.NewSource(1)))
	p := allocTestPacket(packet.FlagPSH | packet.FlagACK)
	mean := allocs.Mean(10, 200, func() {
		_ = eng.Outbound(p)
	})
	if mean > 0 {
		t.Errorf("engine pass-through allocates %.3f objects/op, budget is 0", mean)
	}
}

// TestAllocBudgetEngineMatch pins the matched path at zero allocations on
// pooled trigger packets: a duplicate's copy comes from the packet pool, a
// tampered load is written into the packet's own payload buffer, a
// tampered option into its option slot's own buffer, and the emission
// buffer is the engine's. Every emitted packet goes back to the pool, as
// the network recycles them.
func TestAllocBudgetEngineMatch(t *testing.T) {
	skipUnderRace(t)
	for _, dsl := range []string{
		"[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},send)-| \\/",
		"[TCP:flags:SA]-tamper{TCP:load:corrupt}-| \\/",
		"[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP/1.1}-| \\/",
		"[TCP:flags:SA]-tamper{TCP:options-mss:replace:1460}-| \\/",
		"[TCP:flags:SA]-tamper{TCP:options-wscale:corrupt}-| \\/",
	} {
		eng := NewEngine(MustParse(dsl), rand.New(rand.NewSource(1)))
		mean := allocs.Mean(50, 500, func() {
			p := packet.Get(
				netip.MustParseAddr("198.51.100.9"), netip.MustParseAddr("10.1.0.2"),
				80, 40000)
			p.TCP.Flags = packet.FlagSYN | packet.FlagACK
			for _, q := range eng.Outbound(p) {
				packet.Put(q)
			}
		})
		if mean > 0 {
			t.Errorf("%s: engine matched path allocates %.3f objects/op, budget is 0", dsl, mean)
		}
	}
}
