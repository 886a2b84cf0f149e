package eval_test

import (
	"testing"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
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

// TestRouterLeavesUncensoredClientAlone: RouterDeployment's uncensored
// client sits outside every route, so the deployment router must pass the
// server's handshake through untouched — its first packet on the wire is a
// plain SYN+ACK, not a routed strategy's manipulation.
func TestRouterLeavesUncensoredClientAlone(t *testing.T) {
	addr := eval.RoutedClientAddr(eval.CountryNone, 0)
	for country, p := range eval.RouterPrefixes {
		if p.Contains(addr) {
			t.Fatalf("uncensored client %v lies inside %s's route %v", addr, country, p)
		}
	}
	cfg := eval.Trial(eval.CountryNone, "http", nil, 4200)
	cfg.ClientAddress = addr
	cfg.Hook = func(r *eval.Rig) {
		r.Server.Outbound = eval.NewDeploymentRouter(4200).Outbound
	}
	cfg.WithTrace = true
	rig := eval.NewRig(cfg)
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
	cfg := eval.Config{
		Country:       eval.CountryChina,
		Session:       eval.SessionFor(eval.CountryChina, "http", false),
		ClientAddress: eval.RoutedClientAddr(eval.CountryChina, 0),
		Seed:          7,
	}
	cfg.Hook = func(r *eval.Rig) {
		r.Server.Outbound = eval.NewDeploymentRouter(7).Outbound
	}
	rate := eval.Rate(cfg, 30)
	if rate != 1 {
		t.Errorf("benign traffic through the router: %.2f, want 1.00", rate)
	}
}
