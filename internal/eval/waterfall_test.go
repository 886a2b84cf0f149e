package eval

import (
	"bytes"
	"strings"
	"testing"

	"geneva/internal/netsim"
	"geneva/internal/packet"
	"geneva/internal/strategies"
)

// handshakeShape runs one evading connection for the strategy and returns
// the flag-strings of the packets delivered before the client's first data
// segment — the part of the waterfall each Figure 1/2 panel fixes.
func handshakeShape(t *testing.T, country string, num int) []string {
	t.Helper()
	s, ok := strategies.ByNumber(num)
	if !ok {
		t.Fatalf("no strategy %d", num)
	}
	cfg := Config{
		Country:   country,
		Session:   SessionFor(country, "http", true),
		Strategy:  s.Parse(),
		WithTrace: true,
	}
	cfg.Seed = EvadingSeed(cfg)
	res := Run(cfg)
	if !res.Success {
		t.Fatalf("strategy %d: evading seed did not evade", num)
	}
	var shape []string
	for _, e := range res.Trace.Entries {
		if e.Event != netsim.EventDelivered {
			continue
		}
		side := "C"
		if e.Dir == netsim.ToClient {
			side = "S"
		}
		fl := packet.FlagsString(e.Pkt.TCP.Flags)
		if fl == "" {
			fl = "-"
		}
		if len(e.Pkt.TCP.Payload) > 0 && fl != "PA" {
			fl += "+load"
		}
		if side == "C" && fl == "PA" {
			return shape // stop at the client's query
		}
		shape = append(shape, side+":"+fl)
	}
	return shape
}

// TestFigure1HandshakeShapes pins each China strategy's pre-query packet
// sequence to the paper's Figure 1 panel.
func TestFigure1HandshakeShapes(t *testing.T) {
	want := map[int][]string{
		// Strategy 1: RST, SYN from server; client answers with SYN/ACK
		// (simultaneous open); server completes with ACK.
		1: {"C:S", "S:R", "S:S", "C:SA", "S:A"},
		// Strategy 2: two SYNs (the second with a payload); the client
		// answers each with its simultaneous-open SYN/ACK (the duplicate
		// is the retransmit a real stack sends for a duplicate SYN).
		2: {"C:S", "S:S", "S:S+load", "C:SA", "C:SA", "S:A"},
		// Strategy 3: corrupted SYN/ACK induces a client RST, then the
		// SYN triggers simultaneous open.
		3: {"C:S", "S:SA", "S:S", "C:R", "C:SA", "S:A"},
		// Strategy 4: corrupted SYN/ACK, then the real one; induced RST
		// and a normal completion.
		4: {"C:S", "S:SA", "S:SA", "C:R", "C:A"},
		// Strategy 5: same, but the second SYN/ACK carries a payload.
		5: {"C:S", "S:SA", "S:SA+load", "C:R", "C:A"},
		// Strategy 6: FIN with payload, corrupted SYN/ACK, real SYN/ACK.
		6: {"C:S", "S:F+load", "S:SA", "S:SA", "C:R", "C:A"},
		// Strategy 7: RST, corrupted SYN/ACK, real SYN/ACK.
		7: {"C:S", "S:R", "S:SA", "S:SA", "C:R", "C:A"},
		// Strategy 8: a plain handshake — the magic is in the window.
		8: {"C:S", "S:SA", "C:A"},
	}
	for num, exp := range want {
		got := handshakeShape(t, CountryChina, num)
		if strings.Join(got, " ") != strings.Join(exp, " ") {
			t.Errorf("strategy %d handshake shape\n  got:  %v\n  want: %v (Figure 1)", num, got, exp)
		}
	}
}

// TestFigure2HandshakeShapes pins the Kazakhstan panels.
func TestFigure2HandshakeShapes(t *testing.T) {
	want := map[int][]string{
		// Strategy 9: three payload-bearing SYN/ACKs.
		9: {"C:S", "S:SA+load", "S:SA+load", "S:SA+load", "C:A"},
		// Strategy 10: two GET-carrying SYN/ACKs.
		10: {"C:S", "S:SA+load", "S:SA+load", "C:A"},
		// Strategy 11: a no-flags duplicate before the real SYN/ACK.
		11: {"C:S", "S:-", "S:SA", "C:A"},
	}
	for num, exp := range want {
		got := handshakeShape(t, CountryKazakhstan, num)
		if strings.Join(got, " ") != strings.Join(exp, " ") {
			t.Errorf("strategy %d handshake shape\n  got:  %v\n  want: %v (Figure 2)", num, got, exp)
		}
	}
}

// TestStrategy8Segmentation: Figure 1's Strategy 8 panel shows the query
// split across two PSH/ACK segments.
func TestStrategy8Segmentation(t *testing.T) {
	s, _ := strategies.ByNumber(8)
	cfg := Config{
		Country:   CountryIndia,
		Session:   SessionFor(CountryIndia, "http", true),
		Strategy:  s.Parse(),
		Seed:      1,
		WithTrace: true,
	}
	res := Run(cfg)
	if !res.Success {
		t.Fatal("strategy 8 failed in India")
	}
	segments := 0
	for _, e := range res.Trace.Entries {
		if e.Event == netsim.EventDelivered &&
			e.Dir == netsim.ToServer && len(e.Pkt.TCP.Payload) > 0 {
			segments++
		}
	}
	if segments < 2 {
		t.Errorf("query delivered in %d segment(s); Figure 1 shows it split", segments)
	}
}

// TestPcapWritesEachPacketOnce: a capture holds one record per packet
// fate. China's HTTP trial at seed 1, with no strategy, delivers 10
// packets, 4 of them the GFW's RSTs; neither an injection nor the censor's
// note on the forbidden request may add a second record of a packet.
func TestPcapWritesEachPacketOnce(t *testing.T) {
	cfg := Trial(CountryChina, "http", nil, 1)
	cfg.WithTrace = true
	res := Run(cfg)
	var buf bytes.Buffer
	if err := res.Trace.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pkts, err := netsim.ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if delivered := len(res.Trace.Delivered()); len(pkts) != delivered || delivered != 10 {
		t.Errorf("capture holds %d records for %d delivered packets, want 10 of each", len(pkts), delivered)
	}
}
