package paper_test

import (
	"strings"
	"testing"

	"geneva/internal/paper"
)

func TestClientCompatibilityMatchesSection7(t *testing.T) {
	if testing.Short() {
		t.Skip("14 strategies x 17 OSes")
	}
	cells := paper.ClientCompatibility()
	// 11 strategies + 3 insertion variants, 17 OSes each.
	if len(cells) != 14*17 {
		t.Fatalf("matrix has %d cells, want %d", len(cells), 14*17)
	}
	payloadStrategies := map[string]bool{
		"Corrupt ACK, Injected Load": true, // Strategy 5
		"Triple Load":                true, // Strategy 9
		"Double GET":                 true, // Strategy 10
	}
	for _, c := range cells {
		winOrMac := strings.HasPrefix(c.OS, "Windows") || strings.HasPrefix(c.OS, "macOS")
		insertion := strings.Contains(c.Strategy, "insertion variant")
		switch {
		case insertion:
			if !c.Works {
				t.Errorf("%s on %s: insertion variant must work everywhere", c.Strategy, c.OS)
			}
		case payloadStrategies[c.Strategy] && winOrMac:
			if c.Works {
				t.Errorf("%s on %s: SYN+ACK-payload strategies must fail on Windows/macOS", c.Strategy, c.OS)
			}
		default:
			if !c.Works {
				t.Errorf("%s on %s: should work (paper: all but 5, 9, 10 work everywhere)", c.Strategy, c.OS)
			}
		}
	}
	out := paper.FormatCompat(cells)
	if !strings.Contains(out, "fails on:") || !strings.Contains(out, "all 17 client OSes") {
		t.Error("FormatCompat output malformed")
	}
}
