package eval

import (
	"net/netip"
	"sync"

	"geneva/internal/core"
)

// RouterPrefixes maps each registered country to its client prefix in the
// §8 deployment, the stand-in for country-level IP geolocation that
// DeployFor reads. The map is built from the censor registry, so every
// registered censor has a routable client population.
var RouterPrefixes = func() map[string]netip.Prefix {
	m := make(map[string]netip.Prefix, len(censorRegistry))
	for _, d := range censorRegistry {
		m[d.Country] = d.RouterPrefix
	}
	return m
}()

// RoutedClientAddr returns the address of a country's routed client in
// slot (0-based): host 2+slot inside the country's prefix or, for the
// uncensored population, 198.18.0.(2+slot), outside every prefix. The §8
// router experiment places its client at slot 0, and the fleet places a
// cell's routed clients here.
func RoutedClientAddr(country string, slot int) netip.Addr {
	a := [4]byte{198, 18, 0, 0}
	if p, ok := RouterPrefixes[country]; ok {
		a = p.Addr().As4()
	}
	a[3] = byte(2 + slot)
	return netip.AddrFrom4(a)
}

// deployRoute is one row of the §8 deployment table: a country's client
// prefix, the strategy the paper would pick for it, and the rng-seed offset (the
// strategy's paper number) that pins the route's random stream to the
// strategy rather than to installation order.
type deployRoute struct {
	prefix netip.Prefix
	strat  *core.Strategy
	offset int64
}

var (
	deployOnce   sync.Once
	deployRoutes []deployRoute
)

// deployTable parses and compiles the deployment strategies exactly once,
// in a fixed order. The *core.Strategy values are shared read-only by every
// engine built from the table (engines compile their own rule copies);
// String() is pre-memoized so the sharing is race-free.
func deployTable() []deployRoute {
	deployOnce.Do(func() {
		for _, d := range censorRegistry {
			cs := d.Deploy.Parse()
			_ = cs.String()
			deployRoutes = append(deployRoutes, deployRoute{
				prefix: d.RouterPrefix,
				strat:  cs,
				offset: int64(d.Deploy.Number),
			})
		}
	})
	return deployRoutes
}

// DeployFor is the §8 geolocation step: it returns the strategy the
// deployment serves a client at addr, the first route in registry order
// whose prefix contains it, and the strategy's paper number, the offset its
// engine's stream is seeded at. ok is false for an address no route
// contains (the uncensored population). The strategy is the deployment
// table's shared parse.
func DeployFor(addr netip.Addr) (s *core.Strategy, number int64, ok bool) {
	for _, dr := range deployTable() {
		if dr.prefix.Contains(addr) {
			return dr.strat, dr.offset, true
		}
	}
	return nil, 0, false
}

// RouterLease holds a deployment router (see AcquireDeploymentRouter).
type RouterLease struct {
	Router *core.Router
}

// AcquireDeploymentRouter builds the §8 deployment as one router serving
// clients everywhere, each route's engine seeded at seed + strategy number,
// and returns it in a lease; ReleaseDeploymentRouter does nothing. Their
// only caller is bench/'s replay, which keeps its own copy of the fleet
// cell; the program serves §8 through the sandbox (DeployFor).
func AcquireDeploymentRouter(seed int64) *RouterLease {
	r := core.NewRouter(nil)
	for _, dr := range deployTable() {
		r.Route(dr.prefix, dr.strat, newRand(seed+dr.offset))
	}
	return &RouterLease{Router: r}
}

// ReleaseDeploymentRouter does nothing; see AcquireDeploymentRouter.
func ReleaseDeploymentRouter(*RouterLease) {}
