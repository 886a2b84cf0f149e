package geneva

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"geneva/internal/obs"
)

// TestInstrumentsGolden pins the registered obs counters against
// testdata/instruments.txt, one name per line, sorted. Adding or removing a
// counter fails this test until the golden file is regenerated with
//
//	UPDATE_INSTRUMENTS=1 go test -run TestInstrumentsGolden .
//
// so every change to the instrument set is a reviewable diff.
func TestInstrumentsGolden(t *testing.T) {
	names := make([]string, 0, 128)
	for n := range obs.Take().Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	path := filepath.Join("testdata", "instruments.txt")
	if os.Getenv("UPDATE_INSTRUMENTS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log(path + " regenerated")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_INSTRUMENTS=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("instrument set changed; if intentional, regenerate with UPDATE_INSTRUMENTS=1 go test -run TestInstrumentsGolden .\n--- %s\n+++ current\n%s", path, diffLines(string(want), got))
	}
}
