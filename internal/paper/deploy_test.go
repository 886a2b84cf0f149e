package paper_test

import (
	"testing"

	"geneva/internal/eval"
	"geneva/internal/paper"
)

func TestRouterDeployment(t *testing.T) {
	got := paper.RouterDeployment(40)
	// Deterministic censors: the routed strategy wins outright.
	for _, c := range []string{eval.CountryIndia, eval.CountryIran, eval.CountryKazakhstan} {
		if got[c] != 1 {
			t.Errorf("%s: routed success %.2f, want 1.00", c, got[c])
		}
	}
	// China: Strategy 1's ~54% through the same router.
	if got[eval.CountryChina] < 0.35 || got[eval.CountryChina] > 0.75 {
		t.Errorf("china: routed success %.2f, want ~0.54", got[eval.CountryChina])
	}
	// An unrouted (uncensored) client is untouched and succeeds.
	if got[eval.CountryNone] != 1 {
		t.Errorf("uncensored client: %.2f, want 1.00 (no manipulation)", got[eval.CountryNone])
	}
}
