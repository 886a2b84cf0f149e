package eval

import "math/rand"

// generator is a *rand.Rand and its source in one allocation.
type generator struct {
	rand.Rand
	src rngSource
}

// newRand returns a generator whose stream equals
// rand.New(rand.NewSource(seed))'s. Seeding it is O(1): each word of its
// source table is computed when a draw first reads it, so a stream that
// draws a few values pays for a few words, and one nothing draws from pays
// for none.
func newRand(seed int64) *rand.Rand {
	g := new(generator)
	g.src.Seed(seed)
	g.Rand = *rand.New(&g.src)
	return &g.Rand
}

// Reseed returns g reseeded at seed, or a new generator at seed if g is
// nil: either way one that draws what rand.New(rand.NewSource(seed))
// draws. Every generator has one owner for life, which reseeds it in O(1)
// on reuse. It reseeds through (*rand.Rand).Seed, not the source's, so the
// Read buffer resets too.
func Reseed(g *rand.Rand, seed int64) *rand.Rand {
	if g == nil {
		return newRand(seed)
	}
	g.Seed(seed)
	return g
}
