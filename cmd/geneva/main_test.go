package main

import (
	"errors"
	"strings"
	"testing"

	"geneva/internal/eval"
)

func TestReplEvaluatesStrategies(t *testing.T) {
	in := strings.NewReader(
		"# a comment\n" +
			"strategies\n" +
			`[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \/ ` + "\n" +
			"[broken\n" +
			"\n")
	var out strings.Builder
	if err := repl(in, &out, "kazakhstan", "http", 10); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Null Flags",                       // the library listing
		"success rate over 10 trials: 100", // Strategy 11 vs Kazakhstan
		"evaded censorship",
		"parse error",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("repl output missing %q\n%s", want, got)
		}
	}
}

func TestReplEOF(t *testing.T) {
	var out strings.Builder
	if err := repl(strings.NewReader(""), &out, "china", "http", 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "geneva>") {
		t.Error("no prompt printed")
	}
}

// TestReplRejectsUnknownCountryProtocol checks that a bad -country or
// -protocol is reported before any strategy is read, not found by a panic
// on the first one.
func TestReplRejectsUnknownCountryProtocol(t *testing.T) {
	strategy := strings.NewReader(`[TCP:flags:SA]-drop-| \/ ` + "\n")
	for _, tc := range []struct {
		country, protocol string
		want              error
	}{
		{"atlantis", "http", eval.ErrUnknownCountry},
		{"china", "gopher", eval.ErrUnknownProtocol},
	} {
		var out strings.Builder
		err := repl(strategy, &out, tc.country, tc.protocol, 1)
		if !errors.Is(err, tc.want) {
			t.Errorf("repl(%s/%s) = %v, want %v", tc.country, tc.protocol, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("repl(%s/%s) wrote %q before rejecting its flags", tc.country, tc.protocol, out.String())
		}
	}
}
