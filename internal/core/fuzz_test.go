package core

import (
	"math/rand"
	"testing"

	"geneva/internal/packet"
)

// FuzzParse hammers the strategy parser: it must never panic, and anything
// it accepts must survive a String -> Parse -> String fixed-point check and
// an engine application (the GA feeds the parser machine-generated junk
// continuously).
func FuzzParse(f *testing.F) {
	f.Add(`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \/ `)
	f.Add(`[TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \/ `)
	f.Add(`[TCP:flags:SA]-fragment{tcp:8:true}(drop,send)-| \/ `)
	f.Add(` \/ `)
	f.Add(`[TCP:flags:SA]-tamper{DNS:qname:replace:a.b}-| \/ `)
	f.Add(`[[[:::]]]---|||`)
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input)
		if err != nil {
			return
		}
		printed := s.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", input, printed, err)
		}
		if s2.String() != printed {
			t.Fatalf("not a fixed point: %q -> %q", printed, s2.String())
		}
		// Applying any accepted strategy must not panic.
		eng := NewEngine(s, rand.New(rand.NewSource(1)))
		p := synAckForFuzz()
		_ = eng.Outbound(p)
	})
}

func synAckForFuzz() *packet.Packet {
	p := packet.New(srvAddr, cliAddr, 80, 40000)
	p.TCP.Flags = packet.FlagSYN | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 501
	return p
}
