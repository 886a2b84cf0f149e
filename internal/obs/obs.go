// Package obs is the simulator's cross-layer observability substrate: a
// static registry of atomic counters that every layer (censors, tcpstack,
// netsim, eval, fleet) increments, plus the structured run manifest the
// commands emit. A counter records only what no run Result already holds:
// outcome totals (trials, attempts, censor events, selector pulls) live in
// the Results, not here.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Metrics are off by default; a disabled
//     Counter.Inc is one atomic load and a predictable branch — no
//     allocation, no lock, no map lookup. The trial hot path (see the PR 3
//     allocation budgets) pays nothing it wasn't already paying.
//  2. No allocation on the hot path when enabled either. Counters are
//     package-level statics registered at init; Inc/Add touch only
//     pre-allocated atomics.
//  3. Determinism-neutral. Metrics observe, never steer: no code path may
//     branch on a counter value. The determinism suite proves evolve and
//     evaluate results are bit-identical with metrics on and off.
//  4. Diffable. Snapshot and the manifest render counters in sorted name
//     order with no timestamps, so two runs of the same config diff clean
//     and any behaviour change localizes to the counters it moved.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every mutation. Off by default: the registry exists, the
// counters are registered, but Inc/Add are no-ops.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off globally.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// registry is the static counter table. Counters register at package init
// (NewCounter from var blocks), so the lock is cold after startup; Take
// takes it only to iterate.
var registry struct {
	mu       sync.Mutex
	counters []*Counter
	names    map[string]bool
}

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    atomic.Uint64
}

// NewCounter registers a counter under a unique dotted name
// (e.g. "censor.gfw.http.censored"). Call from a package var block; a
// duplicate name panics at init.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.names == nil {
		registry.names = make(map[string]bool)
	}
	if registry.names[name] {
		panic(fmt.Sprintf("obs: duplicate counter name %q", name))
	}
	registry.names[name] = true
	c := &Counter{name: name}
	registry.counters = append(registry.counters, c)
	return c
}

// Inc adds 1 when metrics are enabled. A nil Counter counts nothing, so a
// counter set can leave the counters it does not report unregistered.
func (c *Counter) Inc() {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n when metrics are enabled (nil-safe, like Inc).
func (c *Counter) Add(n uint64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (readable whether or not enabled).
func (c *Counter) Value() uint64 { return c.v.Load() }

// Snapshot is a frozen view of every registered counter. Zero-valued
// counters are included, so two snapshots of the same build always have the
// same keys — a structural guarantee diffs rely on.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
}

// Take snapshots the registry.
func Take() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(registry.counters))}
	for _, c := range registry.counters {
		s.Counters[c.name] = c.v.Load()
	}
	return s
}

// Reset zeroes every registered counter (the registry itself is static and
// survives). Commands call this before an instrumented run so the manifest
// covers exactly that run.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
}

// Format renders the snapshot as sorted "name value" lines, skipping
// zero-valued counters (the -metrics console view; the manifest keeps
// zeroes for structural stability).
func (s Snapshot) Format() string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		if v := s.Counters[n]; v != 0 {
			out += fmt.Sprintf("%-44s %d\n", n, v)
		}
	}
	return out
}
