package gfw

import (
	"fmt"
	"math/rand"
	"testing"

	"geneva/internal/censor"
)

// gfwState renders what a GFW decides and keeps after a sequence: its
// verdicts, its event count, its tracked flows, and each box's residual
// windows and params.
func gfwState(g *GFW, verdicts []string) string {
	s := fmt.Sprintf("%q censored=%d flows=%d", verdicts, g.CensoredCount(), g.flows.Len())
	for _, b := range g.Boxes {
		s += fmt.Sprintf("\n%s residual=%d %+v", b.P.Protocol, b.residual.Len(), b.P)
	}
	return s
}

// resetSequence censors a forbidden request, which poisons the server for
// the HTTP box's residual window, and leaves a second flow tracked.
func resetSequence(g *GFW) string {
	pkts := append(handshake(100, 500), mk(true, pa, 101, 501, forbiddenGET), synFrom(7))
	var out []string
	for _, v := range feed(g, pkts...) {
		out = append(out, fmt.Sprint(v))
	}
	return gfwState(g, out)
}

// TestCensorResetGFW drives a GFW through a sequence, re-tunes its boxes
// as ShiftParams and the ablation hooks do, resets it on a new generator,
// and drives the sequence again. Its verdicts, count, flows, residual
// windows and params must be those of a fresh New on that generator.
func TestCensorResetGFW(t *testing.T) {
	g := New(censor.Default(), rand.New(rand.NewSource(1)))
	resetSequence(g)
	if g.CensoredCount() == 0 || g.flows.Len() == 0 {
		t.Fatalf("the first sequence left no state to reset: %s", gfwState(g, nil))
	}
	g.ShiftParams(map[string]float64{"pmiss": 1, "residual_s": 0})
	g.Reset(rand.New(rand.NewSource(2)))
	got := resetSequence(g)
	if want := resetSequence(New(censor.Default(), rand.New(rand.NewSource(2)))); got != want {
		t.Errorf("reset GFW diverges from a fresh one\n--- reset ---\n%s\n--- fresh ---\n%s", got, want)
	}
}
