package geneva

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"geneva/internal/obs"
)

// pinnedGolden renders a FleetResult the way the committed goldens were
// generated: indented JSON plus trailing newline, with Manifest.Metrics
// cleared (the counter key-set depends on which packages a build links, so
// byte-identity is asserted over everything the fleet computed, not over
// instrumentation registration order).
func pinnedGolden(t *testing.T, d Deployment) []byte {
	t.Helper()
	res, err := RunDeployment(d)
	if err != nil {
		t.Fatal(err)
	}
	res.Manifest.Metrics = obs.Snapshot{}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func mustPortfolio(t *testing.T, strategies ...string) Portfolio {
	t.Helper()
	p, err := NewPortfolio(strategies...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFleetPinnedByteIdentity pins the registry-pinned fleet — Portfolio and
// Selection both unset — byte-for-byte: the FleetResult and manifest of the
// exact TestFleetDeterminism and TestFleetDeterminismLongHorizon workload
// shapes must match the committed goldens under testdata/. A third golden
// pins a selection run whose bandit re-pins client slots between attempts.
// Any change to a served connection, a seed stream or a manifest key shows
// up here as a reviewable diff; regenerate with
//
//	UPDATE_GOLDEN=1 go test -run TestFleetPinnedByteIdentity .
func TestFleetPinnedByteIdentity(t *testing.T) {
	cases := []struct {
		golden string
		d      Deployment
	}{
		{"testdata/fleet_pinned.json", Deployment{
			Countries: []string{China, India, IndiaJio, IndiaVodafone, Iran,
				Kazakhstan, Turkmenistan, NoCensor},
			Protocols:   []string{"http", "https", "dns", "smtp"},
			Connections: 128,
			Seed:        1234,
		}},
		{"testdata/fleet_pinned_longhorizon.json", Deployment{
			Countries:       []string{China, IndiaJio, Turkmenistan, NoCensor},
			Protocols:       []string{"http", "https", "dns"},
			Connections:     96,
			SessionRequests: 3,
			RequestGap:      40 * time.Second,
			Reconnect:       ReconnectPolicy{MaxAttempts: 3, Backoff: 50 * time.Second, RetryAll: true},
			Seed:            1234,
		}},
		// Re-pins: the bandit moves each client slot between arms across
		// attempts, under loss, jitter and backoff reconnects, so a change
		// to which engine a slot's packets reach shows up here. Strategy
		// 9's arm draws from its engine stream, though the bytes it draws
		// move no outcome (TestSeedScheduleMatchesCell checks the seed).
		{"testdata/fleet_selection.json", Deployment{
			Countries:   []string{China, Kazakhstan, NoCensor},
			Protocols:   []string{"http", "https", "dns"},
			Connections: 300,
			Seed:        1234,
			Portfolio:   mustPortfolio(t, Strategy1.DSL, Strategy9.DSL, Strategy11.DSL),
			Selection:   Selection{Policy: EpsilonGreedy},
			Impairments: Impairments{Loss: 0.02, Jitter: 3 * time.Millisecond},
			Reconnect:   ReconnectPolicy{Backoff: 20 * time.Second, RetryAll: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			got := pinnedGolden(t, tc.d)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", tc.golden)
				return
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
			}
			if string(got) != string(want) {
				t.Errorf("pinned run diverged from the golden %s (UPDATE_GOLDEN=1 to regen):\n%s", tc.golden, got)
			}
		})
	}
}

// TestFleetSelectionDeterminism re-proves the scheduling-matrix bit-identity
// (see sweepSchedules) with the control plane live: a portfolio of three §8
// strategies, the epsilon-greedy bandit picking per attempt, selector state
// merging at wave barriers, and a mid-run censor shift. UCB1 gets the same
// matrix on a reduced grid.
func TestFleetSelectionDeterminism(t *testing.T) {
	portfolio, err := NewPortfolio(Strategy1.DSL, Strategy2.DSL, Strategy11.DSL)
	if err != nil {
		t.Fatal(err)
	}
	base := Deployment{
		Countries:   []string{China, Kazakhstan, NoCensor},
		Protocols:   []string{"http", "https"},
		Connections: 96,
		Seed:        1234,
		Portfolio:   portfolio,
		Selection:   Selection{Policy: EpsilonGreedy},
		Shift:       CensorShift{AtWave: 2, Params: map[string]float64{"prst": 0}},
	}
	want := sweepSchedules(t, "eps/", base)
	ucb := base
	ucb.Selection = Selection{Policy: UCB1}
	wantUCB := encodeDeployment(t, ucb, 1, 1)
	if wantUCB == want {
		t.Error("UCB1 and epsilon-greedy produced identical output; the policy knob is dead")
	}
	for _, layout := range []struct{ w, p int }{{2, 2}, {8, 0}} {
		t.Run(fmt.Sprintf("ucb1/workers=%d_procs=%d", layout.w, layout.p), func(t *testing.T) {
			if got := encodeDeployment(t, ucb, layout.w, layout.p); got != wantUCB {
				t.Errorf("UCB1 run diverged from workers=1/procs=1:\n%s\nvs\n%s", got, wantUCB)
			}
		})
	}
	// The selection table must be populated and coherent: pulls cover every
	// routed attempt's arm draw, and each arm's outcomes sum to its pulls.
	res, err := RunDeployment(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, country := range []string{China, Kazakhstan} {
		sel := res.PerCountry[country].Selection
		if len(sel) == 0 {
			t.Fatalf("%s: no selection outcomes on a selection-enabled run", country)
		}
		var pulls uint64
		for name, arm := range sel {
			if arm.Pulls != arm.Served+arm.TornDown+arm.Unestablished {
				t.Errorf("%s/%q: pulls %d != outcomes %d+%d+%d", country, name,
					arm.Pulls, arm.Served, arm.TornDown, arm.Unestablished)
			}
			pulls += arm.Pulls
		}
		if pulls == 0 {
			t.Errorf("%s: selection table has zero pulls", country)
		}
	}
	if res.PerCountry[NoCensor].Selection != nil {
		t.Error("uncensored (unrouted) country has a selection table; no arms should be pulled there")
	}
}

// TestFleetPinnedPortfolio covers portfolio-pinned mode (Portfolio set,
// Selection unset): every routed client is served the portfolio's first
// strategy, so the trailing arms change nothing a client sees, and no
// control plane runs — no selection tables, no fallbacks.
func TestFleetPinnedPortfolio(t *testing.T) {
	run := func(strategies ...string) FleetResult {
		t.Helper()
		p, err := NewPortfolio(strategies...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunDeployment(Deployment{
			Countries:   []string{China, Kazakhstan, NoCensor},
			Protocols:   []string{"http", "https"},
			Connections: 96,
			Seed:        1234,
			Portfolio:   p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	outcomes := func(res FleetResult) string {
		b, err := json.Marshal(struct {
			PerCountry map[string]CountryStats
			Outcomes   map[string]int
		}{res.PerCountry, res.Outcomes})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wide := run(Strategy2.DSL, Strategy1.DSL, Strategy11.DSL)
	alone := run(Strategy2.DSL)
	if got, want := outcomes(wide), outcomes(alone); got != want {
		t.Errorf("portfolio {S2, S1, S11} served differently from {S2} alone:\n%s\nvs\n%s", got, want)
	}
	if outcomes(alone) == outcomes(run(Strategy1.DSL)) {
		t.Error("{S2} and {S1} portfolios produced identical outcomes; the portfolio is not being served")
	}
	for country, cs := range wide.PerCountry {
		if cs.Selection != nil {
			t.Errorf("%s: selection table on a run without Selection: %+v", country, cs.Selection)
		}
	}
	if wide.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d on a run without Selection", wide.Fallbacks)
	}
}

// TestFleetCollapseAndRecover is the committed scenario the tentpole
// demands: a mid-run censor shift collapses the strategy the §8 deployment
// pins for China, and the control plane must quarantine the cratered arm,
// re-explore, and recover availability above the pinned baseline.
//
// The lever: Strategy 1 (TCB desync via injected RST) relies on the GFW
// resynchronizing on server RSTs — calibrated PRst 0.52 for HTTP. Shifting
// prst to 0 mid-run makes the censor ignore those RSTs entirely, so the
// pinned strategy's evasion collapses to the no-evasion floor. Strategy 2
// (desync via a corrupt-ACK data burst) rides the independent pload path
// and keeps working; the bandit just has to find it.
func TestFleetCollapseAndRecover(t *testing.T) {
	portfolio, err := NewPortfolio(Strategy1.DSL, Strategy2.DSL)
	if err != nil {
		t.Fatal(err)
	}
	base := Deployment{
		Countries:      []string{China},
		Protocols:      []string{"http"},
		Connections:    240,
		ClientsPerCell: 6,
		WavesPerCell:   10,
		// Routed waves only: the collapse signal should not be diluted by
		// collateral from unprotected clients.
		UnprotectedPerCell: -1,
		Seed:               99,
		Shift:              CensorShift{AtWave: 2, Params: map[string]float64{"prst": 0}},
	}

	pinned := base // Portfolio unset, Selection unset: §8 pins Strategy 1.
	pinnedRes, err := RunDeployment(pinned)
	if err != nil {
		t.Fatal(err)
	}

	selected := base
	selected.Portfolio = portfolio
	selected.Selection = Selection{Policy: EpsilonGreedy}
	selRes, err := RunDeployment(selected)
	if err != nil {
		t.Fatal(err)
	}

	pinnedAvail := pinnedRes.PerCountry[China].Availability()
	selAvail := selRes.PerCountry[China].Availability()
	t.Logf("availability: pinned %.3f, selected %.3f (fallbacks %d)",
		pinnedAvail, selAvail, selRes.Fallbacks)
	t.Logf("selection table: %+v", selRes.PerCountry[China].Selection)

	// The shift must actually collapse the pinned strategy: with the censor
	// ignoring RSTs from wave 2 on, the pinned run's evasion has to land far
	// below its calibrated ~90% (8 of 10 waves run against the shifted
	// censor).
	if rate := pinnedRes.PerCountry[China].EvasionRate(); rate > 0.5 {
		t.Fatalf("prst=0 shift did not collapse pinned Strategy 1: evasion %.2f", rate)
	}
	if selAvail <= pinnedAvail {
		t.Errorf("selector did not recover availability: selected %.3f <= pinned %.3f",
			selAvail, pinnedAvail)
	}
	if selRes.Fallbacks == 0 {
		t.Error("collapse was never detected: Fallbacks = 0")
	}
	// After recovery, the surviving arm must dominate the table.
	sel := selRes.PerCountry[China].Selection
	if sel[portfolio.Name(1)].Served <= sel[portfolio.Name(0)].Served {
		t.Errorf("surviving Strategy 2 should out-serve collapsed Strategy 1: %+v", sel)
	}
}

// TestSentinelErrors pins the errors.Is contract of the redesigned API: the
// unknown-country/protocol/invalid-strategy failures are matchable sentinels
// on every entry point, while the messages keep naming valid values.
func TestSentinelErrors(t *testing.T) {
	if _, err := Run(Simulation{Country: "narnia", Protocol: "http", Trials: 1}); !errors.Is(err, ErrUnknownCountry) {
		t.Errorf("Run(narnia) = %v, want ErrUnknownCountry", err)
	}
	if _, err := Run(Simulation{Country: China, Protocol: "telnet", Trials: 1}); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("Run(telnet) = %v, want ErrUnknownProtocol", err)
	}
	if _, err := Run(Simulation{Country: China, Protocol: "http", Strategy: "[broken", Trials: 1}); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("Run(broken strategy) = %v, want ErrInvalidStrategy", err)
	}
	if _, err := RunDeployment(Deployment{Countries: []string{"narnia"}, Connections: 1}); !errors.Is(err, ErrUnknownCountry) {
		t.Errorf("RunDeployment(narnia) = %v, want ErrUnknownCountry", err)
	}
	if _, err := Evolve(EvolveOptions{Country: "narnia", Protocol: "http"}); !errors.Is(err, ErrUnknownCountry) {
		t.Errorf("Evolve(narnia) = %v, want ErrUnknownCountry", err)
	}
	if _, err := Evolve(EvolveOptions{Country: China, Protocol: "telnet"}); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("Evolve(telnet) = %v, want ErrUnknownProtocol", err)
	}
	if _, err := NewPortfolio(Strategy1.DSL, "[broken"); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("NewPortfolio(broken) = %v, want ErrInvalidStrategy", err)
	}
	if _, err := RunDeployment(Deployment{
		Connections: 1,
		Selection:   Selection{Policy: "thompson"},
	}); err == nil {
		t.Error("unknown selection policy: want error, got nil")
	}
}

// TestInboundRulesRejected checks that a strategy with inbound rules is an
// error on the entry points that parse strategies. The server-side engine
// never sees inbound packets, so accepting the rules would score the
// strategy as if they were not there.
func TestInboundRulesRejected(t *testing.T) {
	withInbound := Strategy1.DSL + "[TCP:flags:R]-drop-|"
	if _, err := Run(Simulation{Country: China, Protocol: "http", Strategy: withInbound, Trials: 1}); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("Run(inbound rules) = %v, want ErrInvalidStrategy", err)
	}
	if _, err := NewPortfolio(Strategy1.DSL, withInbound); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("NewPortfolio(inbound rules) = %v, want ErrInvalidStrategy", err)
	}
}

// TestPortfolioRejectsDuplicateArms checks that two portfolio entries with
// the same canonical text are an error. Selection outcomes are reported per
// canonical text, so the second arm would overwrite the first arm's tally.
func TestPortfolioRejectsDuplicateArms(t *testing.T) {
	_, err := NewPortfolio(Strategy1.DSL, Strategy8.DSL, Strategy1.DSL)
	if !errors.Is(err, ErrInvalidStrategy) {
		t.Fatalf("NewPortfolio(duplicate arms) = %v, want ErrInvalidStrategy", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "strategies 0 and 2") {
		t.Errorf("error %q should name both positions (0 and 2)", msg)
	}
}
