package paper_test

import (
	"testing"

	"geneva/internal/paper"
)

func TestCarrierInterferenceMatchesAnecdote(t *testing.T) {
	got := paper.CarrierInterference()
	for n := 1; n <= 11; n++ {
		if !got["wifi"][n] {
			t.Errorf("wifi: strategy %d failed; all work over wifi (§7)", n)
		}
	}
	// T-Mobile: Strategies 1 and 3 fail (bare server SYN dropped);
	// Strategy 2 survives via its payload-bearing SYN.
	for n, want := range map[int]bool{1: false, 2: true, 3: false, 8: true, 11: true} {
		if got["tmobile"][n] != want {
			t.Errorf("tmobile: strategy %d works=%v, want %v", n, got["tmobile"][n], want)
		}
	}
	// AT&T: all three simultaneous-open strategies fail.
	for n, want := range map[int]bool{1: false, 2: false, 3: false, 8: true} {
		if got["att"][n] != want {
			t.Errorf("att: strategy %d works=%v, want %v", n, got["att"][n], want)
		}
	}
}
