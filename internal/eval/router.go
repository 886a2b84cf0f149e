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

// routerClientAddr returns a client address inside a country's prefix.
func routerClientAddr(country string) netip.Addr {
	p := RouterPrefixes[country]
	a := p.Addr().As4()
	a[3] = 2
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

// RouterDeployment runs the §8 scenario: the SAME router serves clients in
// every registered country (plus an uncensored client outside every
// prefix), and each gets the right strategy purely from its address. Each
// country is probed on its sweep protocol (HTTP where censored, otherwise
// the censor's first censored protocol — Jio, for instance, only censors
// HTTPS). It returns country -> success rate.
func RouterDeployment(trials int) map[string]float64 {
	out := make(map[string]float64)
	for _, country := range Countries() {
		proto := SweepProtocol(country)
		succ := 0
		for i := 0; i < trials; i++ {
			seed := int64(4200 + i*31)
			cfg := Config{
				Country: country,
				Session: SessionFor(country, proto, true),
				Tries:   TriesFor(proto),
				Seed:    seed,
				Hook: func(r *Rig) {
					r.Server.Outbound = NewDeploymentRouter(seed).Outbound
				},
			}
			if country != CountryNone {
				cfg.ClientAddress = routerClientAddr(country)
			} // CountryNone keeps the default (unrouted) address
			if Run(cfg).Success {
				succ++
			}
		}
		out[country] = float64(succ) / float64(trials)
	}
	return out
}
