package eval

import (
	"net/netip"
	"sync"

	"geneva/internal/core"
)

// RouterPrefixes stands in for the paper's §8 country-level IP geolocation:
// the server decides which strategy to run from nothing but the client's
// address in the SYN. The map is built from the censor registry, so every
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

// deployRoute is one row of the §8 deployment table: a country prefix, the
// strategy the paper would pick for it, and the rng-seed offset (the
// strategy's paper number) that pins the route's random stream to the
// strategy rather than to installation order.
type deployRoute struct {
	country string
	prefix  netip.Prefix
	strat   *core.Strategy
	offset  int64
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
				country: d.Country,
				prefix:  d.RouterPrefix,
				strat:   cs,
				offset:  int64(d.Deploy.Number),
			})
		}
	})
	return deployRoutes
}

// DeployStrategy returns the strategy the §8 deployment serves country's
// clients and its paper number, the offset its engine's stream is seeded
// at; ok is false for a country with no route (the uncensored
// population). The strategy is the deployment table's shared parse.
func DeployStrategy(country string) (s *core.Strategy, number int64, ok bool) {
	for _, dr := range deployTable() {
		if dr.country == country {
			return dr.strat, dr.offset, true
		}
	}
	return nil, 0, false
}

// NewDeploymentRouter builds the §8 deployment: one router serving clients
// everywhere, with the per-country strategy the paper would pick (Strategy
// 1 for China HTTP, Strategy 8 for India and Iran, Strategy 11 for
// Kazakhstan). Each route's engine rng is seeded seed + strategy number, so
// the streams are a function of the strategy, never of table order.
func NewDeploymentRouter(seed int64) *core.Router {
	r := core.NewRouter(nil)
	for _, dr := range deployTable() {
		r.Route(dr.prefix, dr.strat, newRand(seed+dr.offset))
	}
	return r
}

// RouterLease holds a deployment router (see AcquireDeploymentRouter).
type RouterLease struct {
	Router *core.Router
}

// AcquireDeploymentRouter returns NewDeploymentRouter(seed) in a lease, and
// ReleaseDeploymentRouter does nothing. Their only caller is bench/'s
// replay, which keeps its own copy of the fleet cell; a fleet cell uses no
// router.
func AcquireDeploymentRouter(seed int64) *RouterLease {
	return &RouterLease{Router: NewDeploymentRouter(seed)}
}

// ReleaseDeploymentRouter does nothing; see AcquireDeploymentRouter.
func ReleaseDeploymentRouter(*RouterLease) {}
