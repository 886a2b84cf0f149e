package fleet

import (
	"fmt"
	"testing"
	"time"

	"geneva/internal/eval"
)

// TestFleetKeepAliveCleanRun: an uncensored keep-alive fleet serves every
// planned exchange on the first connection, with no reconnect churn and
// near-total availability (the denominator includes handshake and teardown
// time, so it never reads exactly 1.0).
func TestFleetKeepAliveCleanRun(t *testing.T) {
	r, err := Run(Workload{
		Countries:       []string{eval.CountryNone},
		Connections:     12,
		SessionRequests: 4,
		RequestGap:      40 * time.Second,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.RequestsAttempted != 12*4 {
		t.Fatalf("RequestsAttempted = %d, want %d", r.RequestsAttempted, 12*4)
	}
	if r.RequestsServed != r.RequestsAttempted {
		t.Errorf("RequestsServed = %d, want all %d", r.RequestsServed, r.RequestsAttempted)
	}
	cs := r.PerCountry[eval.CountryNone]
	if cs.FirstAttemptSucceeded != cs.Connections {
		t.Errorf("FirstAttemptSucceeded = %d, want %d", cs.FirstAttemptSucceeded, cs.Connections)
	}
	if cs.Reconnects != 0 || cs.Recoveries != 0 {
		t.Errorf("uncensored fleet reconnected: %d reconnects, %d recoveries", cs.Reconnects, cs.Recoveries)
	}
	if a := r.Availability(); a < 0.95 || a > 1 {
		t.Errorf("clean-run availability = %.3f, want in [0.95, 1]", a)
	}
	if got := cs.MeanReconnectsToRecovery(); got != 0 {
		t.Errorf("MeanReconnectsToRecovery = %.2f with no recoveries", got)
	}
}

// TestFleetOneShotDefaultsUnchanged: the long-horizon fields are pure
// bookkeeping for a zero-value workload — every connection plans exactly one
// exchange, and the request totals collapse onto the classic connection
// totals the harness has always reported.
func TestFleetOneShotDefaultsUnchanged(t *testing.T) {
	r, err := Run(Workload{Connections: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.RequestsAttempted != r.Connections {
		t.Errorf("one-shot RequestsAttempted = %d, want %d", r.RequestsAttempted, r.Connections)
	}
	if r.RequestsServed != r.Succeeded {
		t.Errorf("one-shot RequestsServed = %d, want Succeeded = %d", r.RequestsServed, r.Succeeded)
	}
	for country, cs := range r.PerCountry {
		if cs.RequestsAttempted != cs.Connections {
			t.Errorf("%s: RequestsAttempted = %d, want %d", country, cs.RequestsAttempted, cs.Connections)
		}
	}
}

// keepAliveChina is the committed long-horizon scenario: a China fleet of
// keep-alive sessions (4 exchanges, 40 s apart — long enough that the GFW's
// ~90 s residual window straddles a session), single wave so every first
// attempt settles before any reconnect fires.
var keepAliveChina = Workload{
	Countries:       []string{eval.CountryChina},
	Protocols:       []string{"http"},
	Connections:     32,
	ClientsPerCell:  3,
	WavesPerCell:    1,
	SessionRequests: 4,
	RequestGap:      40 * time.Second,
	Seed:            42,
	Workers:         1,
}

// TestFleetReconnectPolicyChangesAvailability is the scenario the issue
// demands on record: a mid-session teardown plus the client's reconnect
// policy moves user-visible availability, while the first-connection evasion
// rate — every first attempt settles before any reconnect packet exists —
// does not move at all.
//
// Mechanism: one cellmate's censored flow poisons the server's ip:port
// (residual censorship), tearing down established cellmates' sessions at
// their NEXT keep-alive request; every teardown re-poisons for another 90 s.
// A client that reconnects immediately walks straight back into the live
// window and burns its attempt budget; a client that backs off 100 s outlives
// the window and finishes its remaining exchanges.
func TestFleetReconnectPolicyChangesAvailability(t *testing.T) {
	run := func(pol ReconnectPolicy) CountryStats {
		wl := keepAliveChina
		wl.Reconnect = pol
		r, err := Run(wl)
		if err != nil {
			t.Fatal(err)
		}
		return r.PerCountry[eval.CountryChina]
	}
	immediate := run(ReconnectPolicy{MaxAttempts: 3})
	backoff := run(ReconnectPolicy{MaxAttempts: 3, Backoff: 100 * time.Second})

	// The first-connection measurement is policy-blind — and non-degenerate:
	// some first attempts do finish whole sessions despite the poisoning.
	if immediate.FirstAttemptSucceeded != backoff.FirstAttemptSucceeded {
		t.Errorf("first-attempt successes moved with the reconnect policy: immediate %d, backoff %d",
			immediate.FirstAttemptSucceeded, backoff.FirstAttemptSucceeded)
	}
	if immediate.FirstAttemptSucceeded == 0 {
		t.Error("no first attempt ever succeeded; the policy-blindness check is vacuous")
	}
	if immediate.Connections != backoff.Connections {
		t.Fatalf("connection counts diverged: %d vs %d", immediate.Connections, backoff.Connections)
	}

	// Mid-session teardown happened: some connection served at least one
	// whole exchange and still didn't finish its session, so the served
	// total exceeds what the finished sessions alone account for.
	if immediate.RequestsServed <= 4*immediate.Succeeded {
		t.Errorf("no partial sessions under the immediate policy: served %d requests over %d full sessions",
			immediate.RequestsServed, immediate.Succeeded)
	}

	// And the policy is what decides how much of the planned workload the
	// users actually get.
	if backoff.RequestsServed <= immediate.RequestsServed {
		t.Errorf("backoff served %d requests <= immediate's %d; outliving the residual window bought nothing",
			backoff.RequestsServed, immediate.RequestsServed)
	}
	if backoff.Availability() <= immediate.Availability() {
		t.Errorf("backoff availability %.3f <= immediate %.3f",
			backoff.Availability(), immediate.Availability())
	}
	if backoff.Recoveries <= immediate.Recoveries {
		t.Errorf("backoff recovered %d sessions <= immediate's %d", backoff.Recoveries, immediate.Recoveries)
	}
	if immediate.Reconnects == 0 {
		t.Error("immediate policy never reconnected; the scenario exercised nothing")
	}
	if backoff.Recoveries > 0 && backoff.MeanReconnectsToRecovery() <= 0 {
		t.Error("recoveries recorded but MeanReconnectsToRecovery = 0")
	}
}

// TestFleetLongHorizonWorkerInvariance: the committed scenario — keep-alive
// sessions, reconnect backoff, residual windows straddling both — is
// bit-identical (Result and every counter) at any worker width, the same
// guarantee the one-shot fleet has always carried.
func TestFleetLongHorizonWorkerInvariance(t *testing.T) {
	for _, pol := range []ReconnectPolicy{
		{MaxAttempts: 3},
		{MaxAttempts: 3, Backoff: 100 * time.Second},
		{MaxAttempts: 4, Backoff: 50 * time.Second, RetryAll: true},
	} {
		wl := keepAliveChina
		wl.Connections = 24
		wl.Reconnect = pol
		wantRes, wantCtrs := fleetSnapshot(t, wl)
		for _, workers := range []int{2, 8} {
			w := wl
			w.Workers = workers
			name := fmt.Sprintf("backoff=%v/workers=%d", pol.Backoff, workers)
			gotRes, gotCtrs := fleetSnapshot(t, w)
			if gotRes != wantRes {
				t.Errorf("%s: Result diverged from workers=1:\n%s\nvs\n%s", name, gotRes, wantRes)
			}
			for k, want := range wantCtrs {
				if got := gotCtrs[k]; got != want {
					t.Errorf("%s: counter %s = %d, want %d", name, k, got, want)
				}
			}
		}
	}
}
