package main

import (
	"strings"
	"testing"
)

// TestRunDeterministic runs a small fleet in each delivery mode (the §8
// pins, a pinned portfolio, and a portfolio raced by the bandit) and
// requires the same output at one and two wave workers and across two runs
// at the same width, apart from the closing wall-clock line.
func TestRunDeterministic(t *testing.T) {
	for _, mode := range [][]string{
		nil,
		{"-portfolio", "1;2"},
		{"-portfolio", "1;2", "-select", "epsilon-greedy"},
	} {
		out := func(workers string) string {
			t.Helper()
			var b strings.Builder
			args := append([]string{"-connections", "120", "-protocols", "http,dns", "-seed", "3", "-workers", workers}, mode...)
			if err := run(args, &b); err != nil {
				t.Fatalf("%q: %v", args, err)
			}
			report, closing, ok := strings.Cut(strings.TrimSuffix(b.String(), "\n"), "\n\n120 connections in ")
			if !ok || strings.Contains(closing, "\n") {
				t.Fatalf("%q: output does not end in the wall-clock line:\n%s", args, b.String())
			}
			return report
		}
		one := out("1")
		if !strings.Contains(one, "outcomes: ") {
			t.Fatalf("%q: report lacks the outcome line:\n%s", mode, one)
		}
		if sel := strings.Contains(one, "selection ("); sel != (len(mode) == 4) {
			t.Errorf("%q: selection table printed = %v:\n%s", mode, sel, one)
		}
		if two := out("2"); two != one {
			t.Errorf("%q: -workers 2 output differs from -workers 1:\n%s\nvs\n%s", mode, two, one)
		}
		if again := out("1"); again != one {
			t.Errorf("%q: a second run differs from the first:\n%s\nvs\n%s", mode, again, one)
		}
	}
}

// TestRunRejectsBadOptions checks that a bad flag, an unknown country and
// an unparsable portfolio are usage errors, returned before the command
// writes anything.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-countries", "atlantis"},
		{"-portfolio", "99"},
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

// TestExitReportsUnknownCountry pins what the command prints for an
// unknown country: one line on stderr, prefixed with the command's name
// once, and exit status 2.
func TestExitReportsUnknownCountry(t *testing.T) {
	var stdout, stderr strings.Builder
	code := exit(run([]string{"-countries", "atlantis"}, &stdout), &stderr)
	if code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, `fleet: unknown country "atlantis" (valid: ["china" `) ||
		strings.Count(msg, "fleet:") != 1 || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
		t.Errorf("stderr = %q, want one line: fleet: unknown country \"atlantis\" (valid: ...)", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}
