package eval_test

import (
	"os"
	"strings"
	"testing"

	"geneva/internal/eval"
	"geneva/internal/paper"
)

const differentialGolden = "testdata/differential.txt"

// TestDifferentialMatchesGolden locks the cross-censor differential matrix
// char-for-char: every registered censor × censored protocol × strategy
// column, with the failure cause classified from packet evidence. The
// matrix is the PR's proof obligation that the censors are mechanically
// different machines — regen with
//
//	UPDATE_GOLDEN=1 go test ./internal/eval/ -run TestDifferentialMatchesGolden
//
// and review the diff like any other behaviour change.
func TestDifferentialMatchesGolden(t *testing.T) {
	got := paper.FormatDifferential(paper.Differential())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(differentialGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", differentialGolden)
		return
	}
	raw, err := os.ReadFile(differentialGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	want := string(raw)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Error("differential matrix drifted from golden (UPDATE_GOLDEN=1 to regen)")
	}
}

// TestDifferentialCausesDiverge pins the matrix's reason to exist: at least
// one strategy column fails against three or more censors for three or more
// DIFFERENT mechanical reasons. One cause shared by every censor would mean
// the models collapsed into one censor with different blocklists.
func TestDifferentialCausesDiverge(t *testing.T) {
	cells := paper.Differential()
	best, bestStrategy := 0, -1
	for _, s := range paper.DifferentialStrategies {
		causes := map[string]bool{}
		censors := map[string]bool{}
		for _, c := range cells {
			if c.Strategy != s || c.Cause == eval.CauseEvaded || c.Cause == eval.CauseBroken {
				continue
			}
			causes[c.Cause] = true
			censors[c.Country] = true
		}
		if len(censors) >= 3 && len(causes) > best {
			best, bestStrategy = len(causes), s
		}
	}
	if best < 3 {
		t.Fatalf("no strategy fails across >=3 censors with >=3 distinct causes (best: %d)", best)
	}
	t.Logf("strategy %d fails with %d distinct causes", bestStrategy, best)

	// And the specific paper-level contrasts: the same no-evasion HTTP
	// session dies by injected RST in China, an injected block page on
	// Airtel, an injected 302 on Vodafone, and a silent blackhole in Iran.
	want := map[string]string{
		eval.CountryChina:         eval.CauseRST,
		eval.CountryIndia:         eval.CauseBlockpage,
		eval.CountryIndiaVodafone: eval.Cause302,
		eval.CountryIran:          eval.CauseBlackhole,
		eval.CountryKazakhstan:    eval.CauseHijacked,
	}
	for _, c := range cells {
		if c.Strategy != 0 || c.Protocol != "http" {
			continue
		}
		if w, ok := want[c.Country]; ok && c.Cause != w {
			t.Errorf("%s/http no-evasion: cause %s, want %s", c.Country, c.Cause, w)
		}
	}
	// The TMC's DNS engine answers before the resolver can: forged data,
	// not a tear-down.
	for _, c := range cells {
		if c.Country == eval.CountryTurkmenistan && c.Protocol == "dns" && c.Strategy == 0 && c.Cause != eval.CauseForgedDNS {
			t.Errorf("turkmenistan/dns no-evasion: cause %s, want %s", c.Cause, eval.CauseForgedDNS)
		}
	}
}

// TestClassifyFailureEvaded pins the trivial branches.
func TestClassifyFailureEvaded(t *testing.T) {
	if c := eval.ClassifyFailure(eval.Result{Success: true}); c != eval.CauseEvaded {
		t.Errorf("success classified %s", c)
	}
	if c := eval.ClassifyFailure(eval.Result{}); c != eval.CauseBroken {
		t.Errorf("censor-free failure classified %s", c)
	}
}
