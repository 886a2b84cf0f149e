package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var testCounter = NewCounter("test.counter")

func TestDisabledInstrumentsAreInert(t *testing.T) {
	SetEnabled(false)
	Reset()
	testCounter.Inc()
	testCounter.Add(5)
	if got := testCounter.Value(); got != 0 {
		t.Fatalf("disabled counter mutated: %d", got)
	}
}

// TestDisabledZeroAlloc is the hot-path tripwire for the tentpole's
// zero-cost-when-disabled guarantee: a disabled instrument must not
// allocate. (The end-to-end version is eval's TestTrialAllocBudget, which
// runs a whole instrumented trial under the PR 3 budget.)
func TestDisabledZeroAlloc(t *testing.T) {
	SetEnabled(false)
	if allocs := testing.AllocsPerRun(100, func() {
		testCounter.Inc()
		testCounter.Add(3)
	}); allocs != 0 {
		t.Errorf("disabled counters allocate %.1f objects/op, want 0", allocs)
	}
}

// TestEnabledZeroAlloc: enabling metrics must not put allocations on the
// hot path either — only pre-registered atomics are touched.
func TestEnabledZeroAlloc(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	if allocs := testing.AllocsPerRun(100, func() {
		testCounter.Inc()
		testCounter.Add(5)
	}); allocs != 0 {
		t.Errorf("enabled counters allocate %.1f objects/op, want 0", allocs)
	}
}

func TestCounterAddAndReset(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	Reset()
	testCounter.Inc()
	testCounter.Add(4)
	if got := testCounter.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := Take().Counters["test.counter"]; got != 5 {
		t.Errorf("snapshot counter = %d, want 5", got)
	}
	var unregistered *Counter
	unregistered.Inc() // a nil counter counts nothing and does not panic
	unregistered.Add(2)

	Reset()
	if testCounter.Value() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestSnapshotIncludesZeroes(t *testing.T) {
	SetEnabled(false)
	Reset()
	s := Take()
	if _, ok := s.Counters["test.counter"]; !ok {
		t.Error("snapshot omits zero-valued counter: manifests would change shape between runs")
	}
	if s.Format() != "" {
		// Format (the console view) skips zeroes by design.
		for _, line := range []string{s.Format()} {
			t.Errorf("Format rendered zero-valued counters: %q", line)
		}
	}
}

func TestConcurrentCounters(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	Reset()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				testCounter.Inc()
			}
		}()
	}
	wg.Wait()
	if got := testCounter.Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	Reset()
}

func TestManifestRoundtrip(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	Reset()
	testCounter.Add(42)
	m := NewManifest("evaluate -trials 2", map[string]string{"trials": "2"},
		SeedSchedule{Base: 7, TrialStep: 7919, Streams: map[string]int64{"censor": 3}})
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if got.Schema != ManifestSchema {
		t.Errorf("schema = %q", got.Schema)
	}
	if got.Metrics.Counters["test.counter"] != 42 {
		t.Errorf("manifest counter = %d, want 42", got.Metrics.Counters["test.counter"])
	}
	if got.Seeds.Base != 7 || got.Seeds.TrialStep != 7919 || got.Seeds.Streams["censor"] != 3 {
		t.Errorf("seed schedule mangled: %+v", got.Seeds)
	}
	// Two writes of the same state are byte-identical (diffability).
	path2 := filepath.Join(t.TempDir(), "manifest2.json")
	if err := m.WriteFile(path2); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(path2)
	if string(raw) != string(raw2) {
		t.Error("two writes of the same manifest differ byte-wise")
	}
	Reset()
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate counter name did not panic")
		}
	}()
	NewCounter("test.counter")
}
