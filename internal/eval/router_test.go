package eval_test

import (
	"net/netip"
	"testing"

	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/netsim"
	"geneva/internal/packet"
)

// TestRouterLeavesUncensoredClientAlone: RouterDeployment's uncensored
// client sits outside every route, so the deployment serves it no
// strategy and the server's handshake passes untouched — its first packet
// on the wire is a plain SYN+ACK, not a routed strategy's manipulation.
func TestRouterLeavesUncensoredClientAlone(t *testing.T) {
	addr := eval.RoutedClientAddr(eval.CountryNone, 0)
	for country, p := range eval.RouterPrefixes {
		if p.Contains(addr) {
			t.Fatalf("uncensored client %v lies inside %s's route %v", addr, country, p)
		}
	}
	s, _, routed := eval.DeployFor(addr)
	if routed {
		t.Fatalf("uncensored client %v is served %s", addr, s)
	}
	cfg := eval.Trial(eval.CountryNone, "http", s, 4200)
	cfg.ClientAddress = addr
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
	// A Chinese client fetching BENIGN content through the deployment
	// still succeeds: the strategy manipulates only handshake packets and
	// never harms the connection (§8: negligible overhead, no false damage).
	addr := eval.RoutedClientAddr(eval.CountryChina, 0)
	s, _, routed := eval.DeployFor(addr)
	if !routed {
		t.Fatalf("Chinese client %v is served no strategy", addr)
	}
	cfg := eval.Config{
		Country:       eval.CountryChina,
		Session:       eval.SessionFor(eval.CountryChina, "http", false),
		Strategy:      s,
		ClientAddress: addr,
		Seed:          7,
	}
	rate := eval.Rate(cfg, 30)
	if rate != 1 {
		t.Errorf("benign traffic through the router: %.2f, want 1.00", rate)
	}
}

// TestDeployForRoutesEveryCountry checks the §8 geolocation step against
// the registry: every routed client address of a country, whatever its
// slot, is served that country's strategy (the deployment table's one
// parse, numbered as the registry's Deploy), and an address outside every
// country's /16 is served none. The addresses just inside and just past
// each /16 go to the country whose prefix holds them, so no prefix leaks
// into its neighbour.
func TestDeployForRoutesEveryCountry(t *testing.T) {
	owner := func(a netip.Addr) (string, bool) {
		for _, d := range eval.Registry() {
			if d.RouterPrefix.Contains(a) {
				return d.Country, true
			}
		}
		return "", false
	}
	served := map[string]*core.Strategy{}
	for _, d := range eval.Registry() {
		for _, slot := range []int{0, 1, 200} {
			addr := eval.RoutedClientAddr(d.Country, slot)
			s, number, ok := eval.DeployFor(addr)
			switch {
			case !ok:
				t.Errorf("%s slot %d (%v): no strategy", d.Country, slot, addr)
				continue
			case number != int64(d.Deploy.Number):
				t.Errorf("%s slot %d (%v): Strategy %d, want %d", d.Country, slot, addr, number, d.Deploy.Number)
			case s.String() != d.Deploy.Parse().String():
				t.Errorf("%s slot %d (%v): serves %s, want %s", d.Country, slot, addr, s, d.Deploy.Parse())
			}
			if prev, seen := served[d.Country]; seen && prev != s {
				t.Errorf("%s slot %d: a parse of its own, not the deployment table's", d.Country, slot)
			}
			served[d.Country] = s
		}
	}
	for _, slot := range []int{0, 1, 200} {
		addr := eval.RoutedClientAddr(eval.CountryNone, slot)
		if s, _, ok := eval.DeployFor(addr); ok {
			t.Errorf("uncensored slot %d (%v): served %s, want none", slot, addr, s)
		}
	}
	for _, d := range eval.Registry() {
		last := d.RouterPrefix.Addr().As4()
		last[2], last[3] = 255, 255
		inside := netip.AddrFrom4(last)
		past := inside.Next()
		if !d.RouterPrefix.Contains(inside) || d.RouterPrefix.Contains(past) {
			t.Fatalf("%s: %v is not the last address of %v", d.Country, inside, d.RouterPrefix)
		}
		for _, a := range []netip.Addr{inside, past} {
			s, _, ok := eval.DeployFor(a)
			want, routed := owner(a)
			switch {
			case ok != routed:
				t.Errorf("%v (by %s's /16): routed %v, want %v", a, d.Country, ok, routed)
			case ok && s != served[want]:
				t.Errorf("%v: served %s, want %s's strategy", a, s, want)
			}
		}
	}
}
