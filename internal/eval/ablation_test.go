package eval

import "testing"

func TestAblationsShowMechanismsAreLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("many trials")
	}
	for _, a := range Ablations(120) {
		if a.AidsEvasion && a.WithMechanism < a.WithoutMechanism+0.15 {
			t.Errorf("%s (strategy %d/%s): with=%.2f without=%.2f — removing the censor bug should collapse the strategy: %s",
				a.Name, a.Strategy, a.Protocol, a.WithMechanism, a.WithoutMechanism, a.Explanation)
		}
		if !a.AidsEvasion && a.WithoutMechanism < a.WithMechanism+0.15 {
			t.Errorf("%s (strategy %d/%s): with=%.2f without=%.2f — removing the censor capability should boost the strategy: %s",
				a.Name, a.Strategy, a.Protocol, a.WithMechanism, a.WithoutMechanism, a.Explanation)
		}
	}
}

func TestSingleBoxAblationCollapsesHeterogeneity(t *testing.T) {
	if testing.Short() {
		t.Skip("many trials")
	}
	multi, single := SingleBoxAblation(120)
	// Real model: FTP dwarfs HTTP for Strategy 5.
	if multi["ftp"] < multi["http"]+0.5 {
		t.Errorf("multi-box: ftp=%.2f http=%.2f — heterogeneity missing", multi["ftp"], multi["http"])
	}
	// Counterfactual single box: the spread collapses.
	spread := 0.0
	for _, p := range ChinaProtocols {
		for _, q := range ChinaProtocols {
			if d := single[p] - single[q]; d > spread {
				spread = d
			}
		}
	}
	// DNS retries triple the per-try rate, so allow that amplification but
	// nothing like the 90-point multi-box spread.
	if spread > 0.45 {
		t.Errorf("single-box spread = %.2f; a shared stack should be near-uniform (%v)", spread, single)
	}
}

func TestStrategyRuleDependence(t *testing.T) {
	if testing.Short() {
		t.Skip("many trials")
	}
	dep := StrategyRuleDependence(100)
	// Strategy 1 runs on rule 2.
	if dep[1]["no-rule2"] > dep[1]["full"]-0.3 {
		t.Errorf("strategy 1: full=%.2f no-rule2=%.2f", dep[1]["full"], dep[1]["no-rule2"])
	}
	// Strategy 2 runs on rule 1.
	if dep[2]["no-rule1"] > dep[2]["full"]-0.3 {
		t.Errorf("strategy 2: full=%.2f no-rule1=%.2f", dep[2]["full"], dep[2]["no-rule1"])
	}
	// Strategy 3 (FTP) runs on rule 3.
	if dep[3]["no-rule3"] > dep[3]["full"]-0.3 {
		t.Errorf("strategy 3: full=%.2f no-rule3=%.2f", dep[3]["full"], dep[3]["no-rule3"])
	}
	// Strategy 6 survives the loss of rule 3 (it is rule-1-powered on HTTP).
	if dep[6]["no-rule3"] < dep[6]["full"]-0.2 {
		t.Errorf("strategy 6: full=%.2f no-rule3=%.2f — should be rule-1-powered", dep[6]["full"], dep[6]["no-rule3"])
	}
	// Knocking out an unrelated rule never helps dramatically.
	for num, row := range dep {
		if row["full"] < 0.1 {
			t.Errorf("strategy %d full model rate %.2f — suspiciously low", num, row["full"])
		}
	}
}

// TestAblationsMeasureRegistryModel pins the ablations to the model Table 2
// measures: every identity row of Ablations and SingleBoxAblation's
// multi-box column must equal Rate against the registry's China censor at
// the same seed and trial count.
func TestAblationsMeasureRegistryModel(t *testing.T) {
	if testing.Short() {
		t.Skip("many trials")
	}
	const trials = 200
	rate := func(num int, proto string, seed int64) float64 {
		s, _ := byNumber(num)
		return Rate(Config{
			Country:  CountryChina,
			Session:  SessionFor(CountryChina, proto, true),
			Strategy: s,
			Tries:    TriesFor(proto),
			Seed:     seed,
		}, trials)
	}
	rows := Ablations(trials)
	for _, c := range []struct {
		row  int
		seed int64
	}{{0, 100}, {1, 300}, {2, 500}, {4, 900}} {
		a := rows[c.row]
		if want := rate(a.Strategy, a.Protocol, c.seed); a.WithMechanism != want {
			t.Errorf("%s (S%d/%s): ablation with=%.3f, registry model %.3f",
				a.Name, a.Strategy, a.Protocol, a.WithMechanism, want)
		}
	}
	multi, _ := SingleBoxAblation(trials)
	for _, proto := range ChinaProtocols {
		if want := rate(5, proto, int64(1100+protoSeed(proto))); multi[proto] != want {
			t.Errorf("S5/%s: multi-box %.3f, registry model %.3f", proto, multi[proto], want)
		}
	}
}
