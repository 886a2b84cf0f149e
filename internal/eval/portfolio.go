package eval

import (
	"math/rand"
	"sync"

	"geneva/internal/core"
	"geneva/internal/selector"
)

// SeedArmBase offsets each portfolio arm's engine rng within a cell's seed
// space: arm a draws from cellSeed + SeedArmBase + a. The base sits far
// above every other per-cell stream (server/router/censor/impairments at
// 1–4, selection at 5, client slots at 10..260), so arm streams can never
// collide with them. Recorded in the fleet manifest when selection is on.
const SeedArmBase = 1000

// DefaultPortfolio returns the distinct §8 deployment strategies in
// registry order — Strategy 1 (China), Strategy 8 (India/Iran/
// Turkmenistan), Strategy 11 (Kazakhstan) with today's registry. It is the
// portfolio a Selection-enabled run falls back to when none is given: the
// strategies the paper would actually deploy, now raced against each other
// per country instead of pinned to one.
func DefaultPortfolio() selector.Portfolio {
	var strats []*core.Strategy
	seen := map[string]bool{}
	for _, dr := range deployTable() {
		s := dr.strat.String()
		if seen[s] {
			continue
		}
		seen[s] = true
		strats = append(strats, dr.strat)
	}
	return selector.FromStrategies(strats)
}

// PortfolioLease is a pooled set of per-arm engines for one portfolio (see
// AcquirePortfolioEngines). Engines[a] runs the portfolio's arm a; the
// fleet pins one of them to a client address per connection attempt.
type PortfolioLease struct {
	Engines []*core.Engine
	rngs    []*rand.Rand
	hash    string
}

// portfolioPools pools engine sets per portfolio identity (hash). Engine
// construction compiles every rule; at fleet scale each cell would
// otherwise pay that for every arm. Keyed pooling keeps reuse correct when
// different portfolios run in one process (tests, sequential workloads).
var portfolioPools sync.Map // hash -> *sync.Pool

// AcquirePortfolioEngines leases one engine per portfolio arm, rng-seeded
// at seed + SeedArmBase + arm. Reseeding a pooled engine's rng is O(1) and
// recreates the exact stream of a fresh one (engines keep no other per-run
// state — flow pinning lives in the router), so a leased set is
// indistinguishable from newly built engines. Hand it back with
// ReleasePortfolioEngines.
func AcquirePortfolioEngines(p selector.Portfolio, seed int64) *PortfolioLease {
	hash := p.Hash()
	poolAny, _ := portfolioPools.LoadOrStore(hash, &sync.Pool{})
	pool := poolAny.(*sync.Pool)
	if v := pool.Get(); v != nil {
		l := v.(*PortfolioLease)
		for a := range l.rngs {
			l.rngs[a].Seed(seed + SeedArmBase + int64(a))
		}
		return l
	}
	l := &PortfolioLease{
		Engines: make([]*core.Engine, p.Len()),
		rngs:    make([]*rand.Rand, p.Len()),
		hash:    hash,
	}
	for a := 0; a < p.Len(); a++ {
		l.rngs[a] = newRand(seed + SeedArmBase + int64(a))
		l.Engines[a] = core.NewEngine(p.Strategy(a), l.rngs[a])
	}
	return l
}

// ReleasePortfolioEngines returns a lease to its portfolio's pool. The
// caller must not use the engines afterwards.
func ReleasePortfolioEngines(l *PortfolioLease) {
	if l == nil {
		return
	}
	poolAny, _ := portfolioPools.LoadOrStore(l.hash, &sync.Pool{})
	poolAny.(*sync.Pool).Put(l)
}
