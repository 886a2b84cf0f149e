package main

import (
	"strings"
	"testing"
)

// TestRunDeterministic runs a small search end to end (at seed 7 it finds
// a strategy that evades Kazakhstan) and requires byte-identical output at
// one and two population workers, and across two runs at the same width.
func TestRunDeterministic(t *testing.T) {
	out := func(workers string) string {
		t.Helper()
		var b strings.Builder
		args := []string{"-country", "kazakhstan", "-population", "20", "-generations", "2", "-seed", "7", "-workers", workers}
		if err := run(args, &b); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		return b.String()
	}
	one := out("1")
	if !strings.Contains(one, "Best strategy: ") || !strings.Contains(one, "Confirmed success rate") {
		t.Fatalf("report lacks the best strategy or its confirmation:\n%s", one)
	}
	if two := out("2"); two != one {
		t.Errorf("-workers 2 output differs from -workers 1:\n%s\nvs\n%s", two, one)
	}
	if again := out("1"); again != one {
		t.Errorf("a second run differs from the first:\n%s\nvs\n%s", again, one)
	}
}

// TestRunRejectsBadOptions checks that a bad flag or option is a usage
// error, returned before the command writes anything.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-country", "atlantis", "-population", "4"},
		{"-protocol", "gopher", "-population", "4"},
		{"-population", "-1"},
		{"-generations", "-1"},
		{"-trials", "-1"},
	} {
		var b strings.Builder
		err := run(args, &b)
		if _, ok := err.(usageError); !ok {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if b.Len() != 0 {
			t.Errorf("run(%q) wrote output:\n%s", args, b.String())
		}
	}
}
