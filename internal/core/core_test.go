package core

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"geneva/internal/packet"
)

var (
	srvAddr = netip.MustParseAddr("198.51.100.9")
	cliAddr = netip.MustParseAddr("10.1.0.2")
)

func synAck() *packet.Packet {
	p := packet.New(srvAddr, cliAddr, 80, 40000)
	p.TCP.Flags = packet.FlagSYN | packet.FlagACK
	p.TCP.Seq = 1000
	p.TCP.Ack = 501
	p.TCP.Window = 64240
	p.TCP.Options = []packet.Option{
		{Kind: packet.OptMSS, Data: []byte{5, 180}},
		{Kind: packet.OptWScale, Data: []byte{7}},
	}
	return p
}

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

// The paper's Strategy 1, verbatim (modulo whitespace).
const strategy1 = `[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \/ `

func TestParseStrategy1Applies(t *testing.T) {
	s, err := Parse(strategy1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, rng())
	out := eng.Outbound(synAck())
	if len(out) != 2 {
		t.Fatalf("emitted %d packets, want 2", len(out))
	}
	if out[0].TCP.Flags != packet.FlagRST {
		t.Errorf("first packet flags %s, want R", packet.FlagsString(out[0].TCP.Flags))
	}
	if out[1].TCP.Flags != packet.FlagSYN {
		t.Errorf("second packet flags %s, want S", packet.FlagsString(out[1].TCP.Flags))
	}
	if out[0].TCP.Seq != out[1].TCP.Seq || out[0].TCP.Seq != 1000 {
		t.Error("duplicate did not preserve seq")
	}
}

func TestNonMatchingPacketPassesThrough(t *testing.T) {
	s := MustParse(strategy1)
	eng := NewEngine(s, rng())
	p := packet.New(srvAddr, cliAddr, 80, 40000)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = []byte("data")
	out := eng.Outbound(p)
	if len(out) != 1 || out[0] != p {
		t.Error("non-matching packet was transformed")
	}
}

func TestTriggerExactMatch(t *testing.T) {
	tr := Trigger{Proto: "TCP", Field: "flags", Value: "S"}
	p := synAck()
	if tr.Compile()(p) {
		t.Error("TCP:flags:S matched a SYN+ACK (triggers demand exact match)")
	}
	p.TCP.Flags = packet.FlagSYN
	if !tr.Compile()(p) {
		t.Error("TCP:flags:S did not match a SYN")
	}
	// Every flag bit counts, including ECE (0x40), which FSRPAU notation
	// cannot name: an ECE-marked SYN+ACK is not [TCP:flags:SA].
	sa := Trigger{Proto: "TCP", Field: "flags", Value: "SA"}
	p = synAck()
	if !sa.Compile()(p) {
		t.Error("TCP:flags:SA did not match a SYN+ACK")
	}
	p.TCP.Flags |= 0x40
	if sa.Compile()(p) {
		t.Error("TCP:flags:SA matched a SYN+ACK carrying ECE")
	}
}

func TestTamperCorruptAck(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},)-| \/ `)
	eng := NewEngine(s, rng())
	out := eng.Outbound(synAck())
	if len(out) != 2 {
		t.Fatalf("emitted %d packets", len(out))
	}
	if out[0].TCP.Ack == 501 {
		t.Error("ack was not corrupted")
	}
	if out[1].TCP.Ack != 501 {
		t.Error("second copy's ack should be untouched")
	}
}

func TestTamperLoadCorruptCreatesPayload(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-tamper{TCP:load:corrupt}-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 1 || len(out[0].TCP.Payload) == 0 {
		t.Fatal("corrupting an empty load must fabricate a random payload")
	}
}

func TestTamperLoadReplace(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 2 {
		t.Fatalf("emitted %d packets, want 2 (Strategy 10 shape)", len(out))
	}
	for i, p := range out {
		if string(p.TCP.Payload) != "GET / HTTP1." {
			t.Errorf("packet %d payload %q", i, p.TCP.Payload)
		}
	}
}

func TestTamperWindowAndWScaleRemoval(t *testing.T) {
	// Strategy 8, verbatim.
	s := MustParse(`[TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 1 {
		t.Fatalf("emitted %d packets", len(out))
	}
	if out[0].TCP.Window != 10 {
		t.Errorf("window = %d, want 10", out[0].TCP.Window)
	}
	if out[0].TCP.Option(packet.OptWScale) != nil {
		t.Error("wscale option not removed")
	}
	if out[0].TCP.Option(packet.OptMSS) == nil {
		t.Error("unrelated MSS option removed")
	}
}

func TestTamperChecksumMarksRaw(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-tamper{TCP:chksum:corrupt}-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if !out[0].TCP.RawChecksum {
		t.Error("corrupted checksum must survive serialization (RawChecksum)")
	}
}

func TestNullFlagsStrategy(t *testing.T) {
	// Strategy 11: duplicate, clear flags on the first copy.
	s := MustParse(`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 2 {
		t.Fatalf("emitted %d packets", len(out))
	}
	if out[0].TCP.Flags != 0 {
		t.Errorf("first copy flags = %s, want none", packet.FlagsString(out[0].TCP.Flags))
	}
	if out[1].TCP.Flags != packet.FlagSYN|packet.FlagACK {
		t.Error("second copy must be the untouched SYN+ACK")
	}
}

func TestDropAction(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-drop-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 0 {
		t.Errorf("drop emitted %d packets", len(out))
	}
}

func TestNestedDuplicateTriple(t *testing.T) {
	// Strategy 9 shape: three copies with payloads.
	s := MustParse(`[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,),)-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 3 {
		t.Fatalf("emitted %d packets, want 3", len(out))
	}
	for i, p := range out {
		if len(p.TCP.Payload) == 0 {
			t.Errorf("copy %d lacks the payload", i)
		}
		if p.TCP.Flags != packet.FlagSYN|packet.FlagACK {
			t.Errorf("copy %d flags changed", i)
		}
	}
}

func TestFragmentSplitsPayload(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-fragment{tcp:8:true}(,)-| \/ `)
	p := packet.New(srvAddr, cliAddr, 80, 40000)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Seq = 2000
	p.TCP.Payload = []byte("0123456789abcdef")
	out := NewEngine(s, rng()).Outbound(p)
	if len(out) != 2 {
		t.Fatalf("emitted %d packets", len(out))
	}
	if string(out[0].TCP.Payload) != "01234567" || out[0].TCP.Seq != 2000 {
		t.Errorf("first fragment: %q seq=%d", out[0].TCP.Payload, out[0].TCP.Seq)
	}
	if string(out[1].TCP.Payload) != "89abcdef" || out[1].TCP.Seq != 2008 {
		t.Errorf("second fragment: %q seq=%d", out[1].TCP.Payload, out[1].TCP.Seq)
	}
}

func TestFragmentOutOfOrder(t *testing.T) {
	s := MustParse(`[TCP:flags:PA]-fragment{tcp:4:false}(,)-| \/ `)
	p := packet.New(srvAddr, cliAddr, 80, 40000)
	p.TCP.Flags = packet.FlagPSH | packet.FlagACK
	p.TCP.Payload = []byte("abcdefgh")
	out := NewEngine(s, rng()).Outbound(p)
	if len(out) != 2 || string(out[0].TCP.Payload) != "efgh" {
		t.Errorf("out-of-order fragments wrong: %v", out)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`[TCP:flags]-send-| \/ `,                                  // malformed trigger
		`[TCP:flags:SA]-explode-| \/ `,                            // unknown action
		`[TCP:flags:SA]-tamper{TCP:flags}-| \/ `,                  // short tamper args
		`[TCP:flags:SA]-tamper{TCP:flags:zap:S}-| \/ `,            // unknown mode
		`[TCP:flags:SA]-duplicate(send,send-| \/ `,                // unclosed paren
		`[TCP:flags:SA]-send \/ `,                                 // missing -|
		`[TCP:flags:SA-send-| \/ `,                                // unterminated trigger
		`[TCP:flags:SA]-fragment{tcp:x:true}-| \/ `,               // bad offset
		`[TCP:flags:SA]-tamper{TCP:seq:corrupt}(send,send)-| \/ `, // tamper with 2 branches
		`[TCP:flags:SA]-send{x}-| \/ `,                            // send takes no args
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseEmptyStrategy(t *testing.T) {
	s, err := Parse(` \/ `)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Outbound) != 0 {
		t.Error("empty strategy has rules")
	}
	// The identity engine passes everything through.
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 1 {
		t.Error("empty strategy dropped a packet")
	}
}

// TestParseInboundRules checks that inbound rules are rejected, not parsed
// and silently ignored: the engine only ever sees the server's own packets.
func TestParseInboundRules(t *testing.T) {
	for _, in := range []string{
		`[TCP:flags:SA]-send-| \/ [TCP:flags:R]-drop-|`,
		` \/ [TCP:flags:R]-drop-|`,
		`[TCP:flags:SA]-send-| \/ garbage`,
	} {
		if _, err := Parse(in); !errors.Is(err, ErrInvalidStrategy) || !strings.Contains(err.Error(), "outbound rules only") {
			t.Errorf("Parse(%q) = %v, want an ErrInvalidStrategy rejecting inbound rules", in, err)
		}
	}
	// Whitespace after the separator is an empty inbound forest.
	if _, err := Parse("[TCP:flags:SA]-send-| \\/ \t\n"); err != nil {
		t.Errorf("empty inbound forest rejected: %v", err)
	}
}

func TestStringParseRoundtrip(t *testing.T) {
	for _, in := range []string{
		strategy1,
		`[TCP:flags:SA]-tamper{TCP:flags:replace:S}(duplicate(,tamper{TCP:load:corrupt}),)-| \/ `,
		`[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},tamper{TCP:flags:replace:S})-| \/ `,
		`[TCP:flags:SA]-duplicate(duplicate(tamper{TCP:flags:replace:F}(tamper{TCP:load:corrupt},),tamper{TCP:ack:corrupt}),)-| \/ `,
		`[TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \/ `,
		`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \/ `,
	} {
		s1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse(%q): %v", printed, err)
		}
		if s2.String() != printed {
			t.Errorf("not a fixed point:\n  %q\n  %q", printed, s2.String())
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := MustParse(strategy1)
	c := s.Clone()
	c.Outbound[0].Action.Left.NewValue = "F"
	if s.Outbound[0].Action.Left.NewValue != "R" {
		t.Error("Clone shares action nodes")
	}
}

func TestApplyNeverPanicsOnRandomTrees(t *testing.T) {
	// Property: random (generated) trees applied to packets never panic
	// and never emit more than 2^depth packets.
	r := rng()
	f := func(seed int64) bool {
		g := rand.New(rand.NewSource(seed))
		tree := randomTree(g, 3)
		out := tree.Apply(synAck(), r)
		return len(out) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomTree builds an arbitrary action tree (also exercised by the GA).
func randomTree(g *rand.Rand, depth int) *Action {
	if depth == 0 || g.Intn(3) == 0 {
		if g.Intn(4) == 0 {
			return Drop()
		}
		return Send()
	}
	switch g.Intn(3) {
	case 0:
		return Duplicate(randomTree(g, depth-1), randomTree(g, depth-1))
	case 1:
		fields := []string{"flags", "seq", "ack", "window", "chksum", "load", "options-wscale"}
		return Tamper("TCP", fields[g.Intn(len(fields))], "corrupt", "", randomTree(g, depth-1))
	default:
		return Fragment("tcp", g.Intn(20), g.Intn(2) == 0, randomTree(g, depth-1), randomTree(g, depth-1))
	}
}

func TestEngineSignatureMatchesEndpointHook(t *testing.T) {
	// Compile-time check: the engine plugs straight into the stack.
	var hook func(*packet.Packet) []*packet.Packet
	hook = NewEngine(MustParse(strategy1), rng()).Outbound
	out := hook(synAck())
	if len(out) != 2 {
		t.Error("hook mis-wired")
	}
}

func TestSizeCountsNodes(t *testing.T) {
	s := MustParse(strategy1)
	if got := s.Size(); got != 3 {
		t.Errorf("Size = %d, want 3 (duplicate + 2 tampers)", got)
	}
}

func TestTamperIPFields(t *testing.T) {
	s := MustParse(`[TCP:flags:SA]-tamper{IP:ttl:replace:2}-| \/ `)
	out := NewEngine(s, rng()).Outbound(synAck())
	if out[0].IP.TTL != 2 {
		t.Errorf("TTL = %d, want 2", out[0].IP.TTL)
	}
	s2 := MustParse(`[TCP:flags:SA]-tamper{IP:chksum:corrupt}-| \/ `)
	out2 := NewEngine(s2, rng()).Outbound(synAck())
	if !out2[0].IP.RawChecksum {
		t.Error("IP checksum corruption must set RawChecksum")
	}
}

func TestMultilineWhitespaceTolerated(t *testing.T) {
	in := "[TCP:flags:SA]-\nduplicate(\n  tamper{TCP:flags:replace:R},\n  tamper{TCP:flags:replace:S})-| \\/ "
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Outbound) != 1 {
		t.Fatal("rule not parsed")
	}
	out := NewEngine(s, rng()).Outbound(synAck())
	if len(out) != 2 {
		t.Error("multiline strategy misapplied")
	}
}

func TestBytesUnchangedWithoutTamper(t *testing.T) {
	// duplicate must not mutate either copy.
	s := MustParse(`[TCP:flags:SA]-duplicate(,)-| \/ `)
	orig := synAck()
	want, _ := orig.Clone().Wire()
	out := NewEngine(s, rng()).Outbound(orig)
	for i, p := range out {
		got, _ := p.Wire()
		if !bytes.Equal(got, want) {
			t.Errorf("copy %d differs from the original on the wire", i)
		}
	}
}
