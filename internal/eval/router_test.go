package eval

import (
	"testing"

	"geneva/internal/netsim"
	"geneva/internal/packet"
)

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

// TestRouterLeavesUncensoredClientAlone: RouterDeployment's uncensored
// client sits outside every route, so the deployment router must pass the
// server's handshake through untouched — its first packet on the wire is a
// plain SYN+ACK, not a routed strategy's manipulation.
func TestRouterLeavesUncensoredClientAlone(t *testing.T) {
	addr := RoutedClientAddr(CountryNone, 0)
	for country, p := range RouterPrefixes {
		if p.Contains(addr) {
			t.Fatalf("uncensored client %v lies inside %s's route %v", addr, country, p)
		}
	}
	cfg := routerTrial(CountryNone, 4200)
	cfg.WithTrace = true
	rig := NewRig(cfg)
	rig.Attempt()
	for _, e := range rig.Net.Trace.Delivered() {
		if e.Dir != netsim.ToClient {
			continue
		}
		if f := e.Pkt.TCP.Flags; f != packet.FlagSYN|packet.FlagACK || len(e.Pkt.TCP.Payload) != 0 {
			t.Fatalf("first server packet %s, want a plain SYN+ACK", e.Pkt)
		}
		return
	}
	t.Fatal("the server sent the client nothing")
}

func TestRouterDoesNotHurtBenignTraffic(t *testing.T) {
	// A Chinese client fetching BENIGN content through the router still
	// succeeds: the strategy manipulates only handshake packets and never
	// harms the connection (§8: negligible overhead, no false damage).
	cfg := Config{
		Country:       CountryChina,
		Session:       SessionFor(CountryChina, "http", false),
		ClientAddress: RoutedClientAddr(CountryChina, 0),
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
