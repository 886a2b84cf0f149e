package eval

import "testing"

func TestRouterDeployment(t *testing.T) {
	got := RouterDeployment(40)
	// Deterministic censors: the routed strategy wins outright.
	for _, c := range []string{CountryIndia, CountryIran, CountryKazakhstan} {
		if got[c] != 1 {
			t.Errorf("%s: routed success %.2f, want 1.00", c, got[c])
		}
	}
	// China: Strategy 1's ~54% through the same router.
	if got[CountryChina] < 0.35 || got[CountryChina] > 0.75 {
		t.Errorf("china: routed success %.2f, want ~0.54", got[CountryChina])
	}
	// An unrouted (uncensored) client is untouched and succeeds.
	if got[CountryNone] != 1 {
		t.Errorf("uncensored client: %.2f, want 1.00 (no manipulation)", got[CountryNone])
	}
}

func TestRouterDoesNotHurtBenignTraffic(t *testing.T) {
	// A Chinese client fetching BENIGN content through the router still
	// succeeds: the strategy manipulates only handshake packets and never
	// harms the connection (§8: negligible overhead, no false damage).
	cfg := Config{
		Country:       CountryChina,
		Session:       SessionFor(CountryChina, "http", false),
		ClientAddress: routerClientAddr(CountryChina),
		Seed:          7,
	}
	cfg.Hook = func(r *Rig) {
		r.Server.Outbound = NewDeploymentRouter(7).Outbound
	}
	rate := Rate(cfg, 30)
	if rate != 1 {
		t.Errorf("benign traffic through the router: %.2f, want 1.00", rate)
	}
}
