package eval

import (
	"math/rand"
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
// router built from the table (engines compile their own rule copies);
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

// RouterLease is a pooled deployment router (see AcquireDeploymentRouter).
type RouterLease struct {
	Router *core.Router
	rngs   []*rand.Rand
}

// routerPool recycles deployment routers across cells: strategy parsing,
// rule compilation, and engine construction are identical for every lease,
// so only the per-run state — flow pins and rng streams — is reset on reuse.
// A lease owns its generators for life; reseeding one is O(1), and a route
// whose strategy never draws computes no word of its table.
var routerPool sync.Pool

// AcquireDeploymentRouter returns a deployment router identical in behaviour
// to NewDeploymentRouter(seed) — same routes, same per-strategy rng streams
// — but recycled through a pool. Callers hand it back with
// ReleaseDeploymentRouter once the simulation using it has been torn down.
func AcquireDeploymentRouter(seed int64) *RouterLease {
	table := deployTable()
	if v := routerPool.Get(); v != nil {
		l := v.(*RouterLease)
		l.Router.ResetFlows()
		for i := range table {
			l.rngs[i].Seed(seed + table[i].offset)
		}
		return l
	}
	l := &RouterLease{Router: core.NewRouter(nil), rngs: make([]*rand.Rand, len(table))}
	for i, dr := range table {
		l.rngs[i] = newRand(seed + dr.offset)
		l.Router.Route(dr.prefix, dr.strat, l.rngs[i])
	}
	return l
}

// ReleaseDeploymentRouter returns a lease to the pool. The caller must not
// use the router afterwards.
func ReleaseDeploymentRouter(l *RouterLease) {
	if l != nil {
		routerPool.Put(l)
	}
}
