package paper_test

import (
	"testing"

	"geneva/internal/paper"
)

func TestKazakhTripleLoadSweep(t *testing.T) {
	s := paper.KazakhTripleLoadSweep(10)
	if s.OneLoad != 0 || s.TwoLoads != 0 {
		t.Errorf("1 load=%.2f 2 loads=%.2f: fewer than three payloads must fail", s.OneLoad, s.TwoLoads)
	}
	if s.ThreeLoads != 1 || s.FourLoads != 1 {
		t.Errorf("3 loads=%.2f 4 loads=%.2f: three or more must work", s.ThreeLoads, s.FourLoads)
	}
	if s.TwoLoadsPlusEmptyBetween != 0 {
		t.Errorf("load,empty,load=%.2f: an empty SYN+ACK between payloads must break the run", s.TwoLoadsPlusEmptyBetween)
	}
	if s.OneByte != 1 || s.Large != 1 {
		t.Errorf("1-byte=%.2f 400-byte=%.2f: payload size must not matter", s.OneByte, s.Large)
	}
}

func TestKazakhDoubleGetSweep(t *testing.T) {
	s := paper.KazakhDoubleGetSweep(10)
	if s.FullPrefix != 1 {
		t.Errorf("full prefix rate %.2f, want 1", s.FullPrefix)
	}
	if s.Truncated != 0 {
		t.Errorf("truncated prefix (no '.') rate %.2f, want 0", s.Truncated)
	}
	if s.SingleGet != 0 {
		t.Errorf("single GET rate %.2f, want 0 (the duplicate is required)", s.SingleGet)
	}
	if s.LongerPath != 1 {
		t.Errorf("longer well-formed GET rate %.2f, want 1", s.LongerPath)
	}
}

func TestKazakhFlagSweep(t *testing.T) {
	rates := paper.KazakhFlagSweep(8)
	works := []string{"(none)", "P", "U", "PU"}
	fails := []string{"S", "A", "R", "F", "PA"}
	for _, f := range works {
		if rates[f] != 1 {
			t.Errorf("flags %q: rate %.2f, want 1 (no FIN/RST/SYN/ACK bits)", f, rates[f])
		}
	}
	for _, f := range fails {
		if rates[f] != 0 {
			t.Errorf("flags %q: rate %.2f, want 0 (contains a normal handshake bit)", f, rates[f])
		}
	}
}

func TestKazakhProbing(t *testing.T) {
	two, fb := paper.KazakhProbing()
	if !two {
		t.Error("two forbidden GETs during the handshake did not elicit a censor response")
	}
	if fb {
		t.Error("forbidden-then-benign elicited a response; the censor processes the second request")
	}
}
