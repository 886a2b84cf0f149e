package eval_test

import (
	"testing"

	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

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
