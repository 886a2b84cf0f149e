package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var (
	testCounter = NewCounter("test.counter")
	testGauge   = NewGauge("test.gauge")
	testHist    = NewHistogram("test.hist", 1, 2, 4)
)

func TestDisabledInstrumentsAreInert(t *testing.T) {
	SetEnabled(false)
	Reset()
	testCounter.Inc()
	testCounter.Add(5)
	testGauge.SetMax(9)
	testHist.Observe(3)
	if testCounter.Value() != 0 || testGauge.Value() != 0 {
		t.Fatalf("disabled instruments mutated: counter=%d gauge=%d",
			testCounter.Value(), testGauge.Value())
	}
	if hs := Take().Histograms["test.hist"]; hs.Count != 0 {
		t.Fatalf("disabled histogram recorded %d samples", hs.Count)
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
		testGauge.SetMax(7)
		testHist.Observe(2)
	}); allocs != 0 {
		t.Errorf("disabled instruments allocate %.1f objects/op, want 0", allocs)
	}
}

// TestEnabledZeroAlloc: enabling metrics must not put allocations on the
// hot path either — only pre-registered atomics are touched.
func TestEnabledZeroAlloc(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	if allocs := testing.AllocsPerRun(100, func() {
		testCounter.Inc()
		testGauge.SetMax(3)
		testHist.Observe(5)
	}); allocs != 0 {
		t.Errorf("enabled instruments allocate %.1f objects/op, want 0", allocs)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	Reset()
	testCounter.Inc()
	testCounter.Add(4)
	if got := testCounter.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	testGauge.SetMax(3)
	testGauge.SetMax(10)
	testGauge.SetMax(7) // lower: ignored
	if got := testGauge.Value(); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 9} {
		testHist.Observe(v)
	}
	hs := Take().Histograms["test.hist"]
	// Buckets: <=1, <=2, <=4, overflow.
	want := []uint64{2, 1, 2, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 6 || hs.Sum != 19 {
		t.Errorf("count=%d sum=%d, want 6/19", hs.Count, hs.Sum)
	}

	Reset()
	if testCounter.Value() != 0 || testGauge.Value() != 0 {
		t.Error("Reset did not zero instruments")
	}
	if hs := Take().Histograms["test.hist"]; hs.Count != 0 || hs.Sum != 0 {
		t.Error("Reset did not zero histogram")
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
			t.Errorf("Format rendered zero-valued instruments: %q", line)
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
				testHist.Observe(uint64(i % 5))
			}
		}()
	}
	wg.Wait()
	if got := testCounter.Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if hs := Take().Histograms["test.hist"]; hs.Count != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", hs.Count)
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
			t.Error("duplicate instrument name did not panic")
		}
	}()
	NewCounter("test.counter")
}
