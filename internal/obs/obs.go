// Package obs is the simulator's cross-layer observability substrate: a
// static registry of atomic counters, gauges, and bounded histograms that
// every layer (censors, tcpstack, netsim, eval) increments, plus the
// structured run manifest the commands emit.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Metrics are off by default; a disabled
//     Counter.Inc is one atomic load and a predictable branch — no
//     allocation, no lock, no map lookup. The trial hot path (see the PR 3
//     allocation budgets) pays nothing it wasn't already paying.
//  2. No allocation on the hot path when enabled either. Counters are
//     package-level statics registered at init; Inc/Add/Observe touch only
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
// instruments are registered, but Inc/Add/Set/Observe are no-ops.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off globally.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// registry is the static instrument table. Instruments register at package
// init (NewCounter etc. from var blocks), so the lock is cold after startup;
// Snapshot takes it only to iterate.
var registry struct {
	mu         sync.Mutex
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
	names      map[string]bool
}

func register(name string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.names == nil {
		registry.names = make(map[string]bool)
	}
	if registry.names[name] {
		panic(fmt.Sprintf("obs: duplicate instrument name %q", name))
	}
	registry.names[name] = true
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
	register(name)
	c := &Counter{name: name}
	registry.mu.Lock()
	registry.counters = append(registry.counters, c)
	registry.mu.Unlock()
	return c
}

// Inc adds 1 when metrics are enabled. A nil Counter counts nothing, so a
// counter set can leave the instruments it does not report unregistered.
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

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Value returns the current count (readable whether or not enabled).
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a high-water-mark instrument (e.g. peak concurrency), raised by
// SetMax and cleared by Reset.
type Gauge struct {
	name string
	v    atomic.Uint64
}

// NewGauge registers a gauge under a unique name.
func NewGauge(name string) *Gauge {
	register(name)
	g := &Gauge{name: name}
	registry.mu.Lock()
	registry.gauges = append(registry.gauges, g)
	registry.mu.Unlock()
	return g
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v uint64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Value returns the current value.
func (g *Gauge) Value() uint64 { return g.v.Load() }

// Histogram is a bounded histogram over fixed upper bounds: observation v
// lands in the first bucket with v <= bound, or the implicit overflow
// bucket. Bounds are fixed at registration, so Observe allocates nothing.
type Histogram struct {
	name    string
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sum     atomic.Uint64
}

// NewHistogram registers a histogram with the given ascending bucket upper
// bounds (e.g. 1, 2, 4, 8 for a retransmission backoff ladder).
func NewHistogram(name string, bounds ...uint64) *Histogram {
	register(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:    name,
		bounds:  append([]uint64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	registry.mu.Lock()
	registry.histograms = append(registry.histograms, h)
	registry.mu.Unlock()
	return h
}

// Observe records one sample when metrics are enabled.
func (h *Histogram) Observe(v uint64) {
	if !enabled.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Snapshot is a frozen, name-sorted view of every registered instrument.
// Zero-valued instruments are included, so two snapshots of the same build
// always have the same keys — a structural guarantee diffs rely on.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Take snapshots the registry.
func Take() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(registry.counters))}
	for _, c := range registry.counters {
		s.Counters[c.name] = c.v.Load()
	}
	if len(registry.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(registry.gauges))
		for _, g := range registry.gauges {
			s.Gauges[g.name] = g.v.Load()
		}
	}
	if len(registry.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(registry.histograms))
		for _, h := range registry.histograms {
			hs := HistogramSnapshot{
				Bounds: append([]uint64(nil), h.bounds...),
				Counts: make([]uint64, len(h.buckets)),
				Count:  h.count.Load(),
				Sum:    h.sum.Load(),
			}
			for i := range h.buckets {
				hs.Counts[i] = h.buckets[i].Load()
			}
			s.Histograms[h.name] = hs
		}
	}
	return s
}

// Reset zeroes every registered instrument (the registry itself is static
// and survives). Commands call this before an instrumented run so the
// manifest covers exactly that run.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.v.Store(0)
	}
	for _, h := range registry.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// Format renders the snapshot as sorted "name value" lines, skipping
// zero-valued counters (the -metrics console view; the manifest keeps
// zeroes for structural stability).
func (s Snapshot) Format() string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		v, ok := s.Counters[n]
		if !ok {
			v = s.Gauges[n]
		}
		if v == 0 {
			continue
		}
		out += fmt.Sprintf("%-44s %d\n", n, v)
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		if h.Count == 0 {
			continue
		}
		out += fmt.Sprintf("%-44s count=%d sum=%d buckets=%v\n", n, h.Count, h.Sum, h.Counts)
	}
	return out
}
