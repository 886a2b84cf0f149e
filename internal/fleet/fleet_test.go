package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"geneva/internal/eval"
	"geneva/internal/obs"
)

// TestFleetWorkload pins the harness's basic accounting on the default
// registry-wide country mix (seven censors): the plan serves exactly the
// requested number of connections, splits them evenly, and the outcome mix
// partitions them.
func TestFleetWorkload(t *testing.T) {
	r, err := Run(Workload{Connections: 112, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.Connections != 112 {
		t.Fatalf("Connections = %d, want 112", r.Connections)
	}
	if r.Cells != 7 {
		t.Fatalf("Cells = %d, want 7 (one per country at this size)", r.Cells)
	}
	sum := 0
	for name, n := range r.Outcomes {
		if n < 0 {
			t.Errorf("outcome %q negative: %d", name, n)
		}
		sum += n
	}
	if sum != r.Connections {
		t.Errorf("outcomes sum to %d, want %d (must partition the fleet)", sum, r.Connections)
	}
	succ := 0
	for country, cs := range r.PerCountry {
		if cs.Connections != 16 {
			t.Errorf("%s: %d connections, want an even 16", country, cs.Connections)
		}
		if cs.Routed+cs.Contested+cs.Unprotected != cs.Connections {
			t.Errorf("%s: kinds %d+%d+%d don't partition %d connections",
				country, cs.Routed, cs.Contested, cs.Unprotected, cs.Connections)
		}
		succ += cs.Succeeded
	}
	if succ != r.Succeeded {
		t.Errorf("per-country Succeeded sums to %d, want %d", succ, r.Succeeded)
	}

	// The deterministic censors (every ISP of the India family, Iran,
	// Kazakhstan, and the TMC — whose residual window is shorter than the
	// default wave gap) have no cross-connection state the routed strategy
	// can't out-run, so it wins outright even in a shared cell — the §8
	// result, now at fleet scale.
	deterministic := []string{eval.CountryIndia, eval.CountryIndiaJio, eval.CountryIndiaVodafone,
		eval.CountryIran, eval.CountryKazakhstan, eval.CountryTurkmenistan}
	for _, c := range deterministic {
		if rate := r.PerCountry[c].EvasionRate(); rate != 1 {
			t.Errorf("%s: routed evasion %.2f, want 1.00", c, rate)
		}
	}
	// China runs Strategy 1 (~54% per isolated flow) AND pays residual
	// collateral from cellmates; the fleet rate lands below the isolated
	// rate but must stay nonzero.
	if rate := r.PerCountry[eval.CountryChina].EvasionRate(); rate <= 0 || rate >= 0.75 {
		t.Errorf("china: routed evasion %.2f, want in (0, 0.75)", rate)
	}
	// Unprotected clients in deterministic-censor countries never succeed
	// on a censored workload: no route matched, so the server never helped
	// them. (Jio censors only HTTPS, so its unprotected HTTP clients pass
	// — skip it here.)
	for _, c := range deterministic {
		if c == eval.CountryIndiaJio {
			continue
		}
		if n := r.PerCountry[c].UnprotectedSucceeded; n != 0 {
			t.Errorf("%s: %d unprotected successes, want 0", c, n)
		}
	}
}

// TestFleetUncensoredCountry: a CountryNone population has no censor in its
// cells, so every connection is served.
func TestFleetUncensoredCountry(t *testing.T) {
	r, err := Run(Workload{Countries: []string{eval.CountryNone}, Connections: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded != 12 {
		t.Fatalf("uncensored fleet: %d/12 served, want all", r.Succeeded)
	}
	if r.Outcomes["served"] != 12 || r.Outcomes["torn_down"] != 0 {
		t.Fatalf("uncensored outcomes = %v, want 12 served", r.Outcomes)
	}
}

// TestFleetServesDeployFor checks the fleet's §8 pin against the
// deployment's geolocation step: with neither a portfolio nor selection,
// each routed country's cells serve exactly the strategy eval.DeployFor
// picks for the country's routed clients, as one arm on the router stream
// at that strategy's number, and the uncensored population serves none.
func TestFleetServesDeployFor(t *testing.T) {
	wl := Workload{Countries: eval.Countries(), Connections: len(eval.Countries()), Seed: 1}.withDefaults()
	ctl := resolveControl(wl)
	for _, country := range eval.Countries() {
		set, armed := ctl.arms[country]
		s, number, routed := eval.DeployFor(eval.RoutedClientAddr(country, 0))
		switch {
		case armed != routed:
			t.Errorf("%q: armed %v, but DeployFor routes it %v", country, armed, routed)
		case !routed:
		case len(set.strats) != 1 || set.strats[0] != s:
			t.Errorf("%s: arms %v, want DeployFor's %s alone", country, set.strats, s)
		case set.seed != seedRouter+number:
			t.Errorf("%s: arm seed %d, want router stream + Strategy %d = %d", country, set.seed, number, seedRouter+number)
		}
	}
}

// TestFleetCrossConnectionResidual is the cross-connection censor-state
// regression: with no gap between waves, GFW residual censorship opened by
// one wave's censored flows (the unprotected client guarantees some) bleeds
// into the next wave and tears down flows that would otherwise have been
// served. The harness must show MORE residual hits and FEWER routed
// successes at WaveGap<0 than at the default 120 s gap, which outlives the
// ~90 s residual window.
func TestFleetCrossConnectionResidual(t *testing.T) {
	base := Workload{
		Countries:   []string{eval.CountryChina},
		Connections: 40,
		Seed:        42,
	}
	run := func(gap time.Duration) (CountryStats, uint64) {
		prev := obs.Enabled()
		obs.SetEnabled(true)
		obs.Reset()
		defer func() {
			obs.Reset()
			obs.SetEnabled(prev)
		}()
		wl := base
		wl.WaveGap = gap
		r, err := Run(wl)
		if err != nil {
			t.Fatal(err)
		}
		return r.PerCountry[eval.CountryChina], obs.Take().Counters["censor.gfw.http.residual_hits"]
	}
	gapped, gappedHits := run(120 * time.Second)
	merged, mergedHits := run(-1)
	if mergedHits <= gappedHits {
		t.Errorf("residual hits: no-gap %d <= gapped %d; cross-wave residual state never fired",
			mergedHits, gappedHits)
	}
	if merged.RoutedSucceeded >= gapped.RoutedSucceeded {
		t.Errorf("routed successes: no-gap %d >= gapped %d; residual collateral cost nothing",
			merged.RoutedSucceeded, gapped.RoutedSucceeded)
	}
}

// TestFleetTMCResidual: the TMC carries cross-connection state through the
// same residual ledger as the GFW (censor.ResidualCarrier), so the fleet
// regression holds for it too: with no gap between waves, one wave's
// tear-downs poison the server for the next wave's handshakes; with the
// default 120 s gap — longer than the TMC's 60 s window — the cross-wave
// seeds expire, so strictly fewer connections hit residual state (cellmates
// inside one wave still poison each other; only the cross-WAVE bleed is
// gap-sensitive).
func TestFleetTMCResidual(t *testing.T) {
	base := Workload{
		Countries:   []string{eval.CountryTurkmenistan},
		Connections: 40,
		Seed:        42,
	}
	run := func(gap time.Duration) uint64 {
		prev := obs.Enabled()
		obs.SetEnabled(true)
		obs.Reset()
		defer func() {
			obs.Reset()
			obs.SetEnabled(prev)
		}()
		wl := base
		wl.WaveGap = gap
		if _, err := Run(wl); err != nil {
			t.Fatal(err)
		}
		c := obs.Take().Counters
		return c["censor.tmc.residual_hits"]
	}
	gapped := run(120 * time.Second)
	merged := run(-1)
	if merged <= gapped {
		t.Errorf("TMC residual hits: no-gap %d <= gapped %d; the ledger never carried TMC state across waves",
			merged, gapped)
	}
}

// TestFleetValidation: a workload naming an unmodeled country or protocol
// must come back as a descriptive error, not a panic (the pre-fix behaviour
// deep in eval was a panic).
func TestFleetValidation(t *testing.T) {
	if _, err := Run(Workload{Countries: []string{"atlantis"}}); err == nil {
		t.Error("unknown country: want error, got nil")
	} else if !strings.Contains(err.Error(), "atlantis") || !strings.Contains(err.Error(), eval.CountryChina) {
		t.Errorf("unknown-country error should name the input and the valid values, got: %v", err)
	}
	if _, err := Run(Workload{Protocols: []string{"gopher"}}); err == nil {
		t.Error("unknown protocol: want error, got nil")
	} else if !strings.Contains(err.Error(), "gopher") || !strings.Contains(err.Error(), "http") {
		t.Errorf("unknown-protocol error should name the input and the valid values, got: %v", err)
	}
	if _, err := Run(Workload{ClientsPerCell: 300}); err == nil {
		t.Error("oversized cell: want error, got nil")
	}
}

// TestFleetMetricsMatchResult: with collection enabled, the manifest must
// carry exactly the snapshot the process registry holds, the wave counter
// must see the run's waves, and, like every obs counter, the fleet counters
// must be identical at any worker width.
func TestFleetMetricsMatchResult(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer func() {
		obs.Reset()
		obs.SetEnabled(prev)
	}()
	wl := Workload{Connections: 48, Seed: 7}
	snap := func(workers int) (Result, obs.Snapshot) {
		obs.Reset()
		w := wl
		w.Workers = workers
		r, err := Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return r, obs.Take()
	}
	r, s := snap(1)
	// The manifest is built after the fleet counters are published, so it
	// carries the same snapshot the process registry holds.
	if m := r.Manifest.Metrics; !reflect.DeepEqual(m, s) {
		t.Errorf("manifest metrics differ from obs.Take() (fleet.waves %d vs %d)",
			m.Counters["fleet.waves"], s.Counters["fleet.waves"])
	}
	if s.Counters["fleet.waves"] == 0 {
		t.Error("fleet.waves = 0, want the run's waves counted")
	}
	for _, w := range []int{2, 8} {
		_, got := snap(w)
		for name, v := range s.Counters {
			if got.Counters[name] != v {
				t.Errorf("workers=%d: counter %s = %d, want %d", w, name, got.Counters[name], v)
			}
		}
	}
}

// TestFleetManifestStable: the manifest embeds the workload config and seed
// schedule but never the worker width or wall-clock anything, so two runs of
// one Workload at different widths produce identical manifests.
func TestFleetManifestStable(t *testing.T) {
	wl := Workload{Connections: 24, Seed: 5}
	a, err := Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	wl.Workers = 8
	b, err := Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	aj, bj := a.Manifest.JSON(), b.Manifest.JSON()
	if string(aj) != string(bj) {
		t.Errorf("manifest differs across worker widths:\n%s\nvs\n%s", aj, bj)
	}
	if a.Manifest.Config["connections"] != "24" {
		t.Errorf("manifest connections = %q, want 24", a.Manifest.Config["connections"])
	}
	if _, ok := a.Manifest.Config["workers"]; ok {
		t.Error("manifest must not record worker width")
	}
	// The long-horizon knobs are part of the run record (their resolved
	// defaults, so a manifest alone reproduces the run).
	if got := a.Manifest.Config["session_requests"]; got != "1" {
		t.Errorf("manifest session_requests = %q, want 1", got)
	}
	if got := a.Manifest.Config["reconnect_retry_all"]; got != "false" {
		t.Errorf("manifest reconnect_retry_all = %q, want false", got)
	}
}
