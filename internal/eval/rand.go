package eval

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// generator is a *rand.Rand and its source in one allocation.
type generator struct {
	rand.Rand
	src rngSource
}

// newRand returns an unpooled generator whose stream equals
// rand.New(rand.NewSource(seed))'s. Seeding it is O(1): each word of its
// source table is computed when a draw first reads it, so a stream that
// draws a few values pays for a few words, and one nothing draws from pays
// for none. Router and portfolio leases own theirs for life and reseed them
// with (*rand.Rand).Seed.
func newRand(seed int64) *rand.Rand {
	g := new(generator)
	g.src.Seed(seed)
	g.Rand = *rand.New(&g.src)
	return &g.Rand
}

// randPool recycles generators, and with them their source tables.
var randPool = sync.Pool{New: func() any { return newRand(0) }}

// randOutstanding counts generators acquired and not yet released; the
// pool-balance tests read it.
var randOutstanding atomic.Int64

// AcquireRand returns a generator whose stream is exactly that of
// rand.New(rand.NewSource(seed)), recycled from a pool and reseeded in O(1):
// the words a reused table still holds from its last stream are recomputed
// for the new seed as draws first read them. Hand it back with ReleaseRand
// once nothing that holds it will draw again; a generator that is never
// released is simply garbage-collected.
func AcquireRand(seed int64) *rand.Rand {
	randOutstanding.Add(1)
	r := randPool.Get().(*rand.Rand)
	// (*rand.Rand).Seed, not the source's, so the Read buffer resets too.
	r.Seed(seed)
	return r
}

// ReleaseRand returns a generator from AcquireRand to the pool. The caller
// must not draw from it afterwards.
func ReleaseRand(r *rand.Rand) {
	randOutstanding.Add(-1)
	randPool.Put(r)
}

// Rands collects the generators a fleet cell acquires, so they can be
// released together.
type Rands []*rand.Rand

// Acquire is AcquireRand(seed), remembered for Release.
func (rs *Rands) Acquire(seed int64) *rand.Rand {
	r := AcquireRand(seed)
	*rs = append(*rs, r)
	return r
}

// Release hands every collected generator back to the pool.
func (rs *Rands) Release() {
	for i, r := range *rs {
		ReleaseRand(r)
		(*rs)[i] = nil
	}
	*rs = (*rs)[:0]
}
