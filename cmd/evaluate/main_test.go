package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"geneva/internal/paper"
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
	paper.Report(&b, 300)
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

// TestRunRejectsUnknownName checks that a name no entry has is an error,
// returned before any output, that lists every entry.
func TestRunRejectsUnknownName(t *testing.T) {
	for _, name := range []string{"all", "table", "2", "Table2", "figure4"} {
		var b strings.Builder
		err := paper.Run(&b, name, 1)
		if err == nil {
			t.Errorf("run(%q) = nil error, want one", name)
			continue
		}
		if b.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", name, b.String())
		}
		listed := map[string]bool{}
		for _, f := range strings.FieldsFunc(err.Error(), func(r rune) bool {
			return strings.ContainsRune(" ,:;", r)
		}) {
			listed[f] = true
		}
		for _, e := range paper.Names() {
			if !listed[e] {
				t.Errorf("run(%q) error %q does not list %q", name, err, e)
			}
		}
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range paper.Names() {
		if seen[e] {
			t.Errorf("entry %q is listed twice", e)
		}
		seen[e] = true
	}
}

// citedExperiment matches a `cmd/evaluate ... -experiment NAME` command on
// one line of a document; NAME may join several entries with '|'.
var citedExperiment = regexp.MustCompile("cmd/evaluate\\b[^\\n`]*?-experiment[ =]([a-z0-9|-]+)")

// TestDocumentedExperimentsExist checks that every `cmd/evaluate
// -experiment NAME` the documents cite names an entry, so a renamed or
// removed entry cannot leave a dead command behind.
func TestDocumentedExperimentsExist(t *testing.T) {
	known := map[string]bool{}
	for _, e := range paper.Names() {
		known[e] = true
	}
	for _, doc := range []string{
		"../../README.md",
		"../../DESIGN.md",
		"../../EXPERIMENTS.md",
		"../../Makefile",
		"../../.claude/skills/verify/SKILL.md",
	} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		cites := citedExperiment.FindAllStringSubmatch(string(raw), -1)
		if len(cites) == 0 {
			t.Errorf("%s cites no cmd/evaluate -experiment command", doc)
		}
		for _, c := range cites {
			for _, name := range strings.Split(c[1], "|") {
				if !known[name] {
					t.Errorf("%s cites %q: no entry is named %q", doc, c[0], name)
				}
			}
		}
	}
}
