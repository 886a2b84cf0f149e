package main

import (
	"os"
	"strings"
	"testing"
)

// TestReportMatchesResults pins the whole default report: at 300 trials it
// must equal docs/RESULTS.txt byte for byte. It also locks the
// zero-impairment contract: docs/RESULTS.txt predates the impairment layer
// and retransmission machinery, and every experiment in the report runs
// with the zero-value Impairments. If installing the impairment hooks ever
// consumes an extra rng draw, arms a timer, or otherwise perturbs a
// lossless trial, some line moves and this test names it.
func TestReportMatchesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full 300-trial report")
	}
	raw, err := os.ReadFile("../../docs/RESULTS.txt")
	if err != nil {
		t.Fatalf("reading golden results: %v", err)
	}
	var b strings.Builder
	report(&b, 300)
	got, want := b.String(), string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for k := 0; k < len(gl) || k < len(wl); k++ {
		var g, w string
		if k < len(gl) {
			g = gl[k]
		}
		if k < len(wl) {
			w = wl[k]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", k+1, g, w)
		}
	}
}
