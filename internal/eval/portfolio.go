package eval

import (
	"geneva/internal/core"
	"geneva/internal/selector"
)

// SeedArmBase offsets each portfolio arm's engine rng within a cell's seed
// space: arm a draws from cellSeed + SeedArmBase + a. The base sits far
// above every other per-cell stream (server/router/censor/impairments at
// 1–4, selection at 5, client slots at 10..260), so arm streams can never
// collide with them. The fleet manifest records it as portfolio_arms.
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

// PortfolioLease holds one engine per portfolio arm (see
// AcquirePortfolioEngines). Engines[a] runs the portfolio's arm a.
type PortfolioLease struct {
	Engines []*core.Engine
}

// AcquirePortfolioEngines builds one engine per portfolio arm, rng-seeded
// at seed + SeedArmBase + arm, and ReleasePortfolioEngines does nothing.
// Their only caller is bench/'s replay, which keeps its own copy of the
// fleet cell; a fleet cell's sandbox owns its arm engines for life.
func AcquirePortfolioEngines(p selector.Portfolio, seed int64) *PortfolioLease {
	l := &PortfolioLease{Engines: make([]*core.Engine, p.Len())}
	for a := range l.Engines {
		l.Engines[a] = core.NewEngine(p.Strategy(a), newRand(seed+SeedArmBase+int64(a)))
	}
	return l
}

// ReleasePortfolioEngines does nothing; see AcquirePortfolioEngines.
func ReleasePortfolioEngines(*PortfolioLease) {}
