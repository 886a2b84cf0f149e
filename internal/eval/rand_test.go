package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawScript draws from r with every Rand method the repository calls, in
// a fixed order, and returns what it drew. Its Read lengths straddle the
// 7-byte boundary of Rand's Read buffer, so a generator whose buffer was
// not reset on reseeding shows up as a different byte stream.
func drawScript(r *rand.Rand) []uint64 {
	var out []uint64
	buf := make([]byte, 16)
	for _, n := range []int{3, 5, 7, 1, 9, 14, 2} {
		out = append(out,
			uint64(r.Int63()),
			uint64(r.Int63n(1_000_003)),
			uint64(r.Int31n(97)),
			uint64(r.Intn(16384)),
			uint64(r.Uint32()),
			r.Uint64(),
			math.Float64bits(r.Float64()),
		)
		r.Read(buf[:n])
		for _, b := range buf[:n] {
			out = append(out, uint64(b))
		}
	}
	return out
}

func equalDraws(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: drew %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d = %#x, want %#x", label, i, got[i], want[i])
		}
	}
}

// TestReseedBitIdentical pins the contract every owned generator relies
// on: a generator draws exactly what rand.New(rand.NewSource(seed)) draws,
// through every method, fresh, across a mid-stream reseed, after Reseed
// reuses it under another seed with a Read cut short, and, for 1,024
// seeds, through the first 2,048 draws after a reseed at each of the draw
// counts where the source's fill-on-first-read rules change.
func TestReseedBitIdentical(t *testing.T) {
	seeds := []int64{0, 1, -1, math.MaxInt32, math.MaxInt32 + 1, math.MinInt64}
	pick := rand.New(rand.NewSource(20))
	for i := 0; i < 6; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := Reseed(nil, seed)
		equalDraws(t, "fresh", drawScript(got), drawScript(want))

		// Reseed mid-stream, with the Read buffer partly consumed.
		got.Read(make([]byte, 3))
		want.Read(make([]byte, 3))
		got.Seed(seed ^ 0x5eed)
		want.Seed(seed ^ 0x5eed)
		equalDraws(t, "reseeded", drawScript(got), drawScript(want))

		// A never-drawn generator reseeded before its first draw.
		twice := newRand(seed + 1)
		twice.Seed(seed)
		equalDraws(t, "seeded twice before drawing", drawScript(twice), drawScript(rand.New(rand.NewSource(seed))))
	}

	// Cut a Read short and reuse the generator under a new seed. Unless
	// Reseed goes through (*rand.Rand).Seed, the stale Read buffer leaks
	// into the next stream.
	for i, seed := range seeds {
		r := newRand(seed)
		r.Read(make([]byte, 1+i%6))
		next := seed*31 + int64(i)
		if Reseed(r, next) != r {
			t.Fatal("Reseed replaced the generator it was given")
		}
		equalDraws(t, "reused", drawScript(r), drawScript(rand.New(rand.NewSource(next))))
	}

	t.Run("fill boundaries", testFillBoundaries)
}

// fillBoundaries are the draw counts at which rngSource's fill rules
// change: tap leaves the top rngTap words after draw 273, feed wraps after
// draw 334, and tap wraps after draw 607.
var fillBoundaries = []int{0, 1, 272, 273, 333, 334, 335, 606, 607}

// boundarySeeds returns the seeds testFillBoundaries covers: the ones
// math/rand's seed reduction treats specially, then random ones.
func boundarySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		89482311, // what a seed ≡ 0 mod 2³¹−1 becomes
		int32max, -int32max, 2 * int32max, 1_000_003 * int32max, -977 * int32max,
		int32max - 1, int32max + 1, -int32max - 1, -int32max + 1,
		math.MaxInt32, math.MinInt32, math.MaxUint32,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
	}
	pick := rand.New(rand.NewSource(17))
	for len(seeds) < 1024 {
		s := int64(pick.Uint64())
		if len(seeds)%4 == 0 {
			s = int64(pick.Int31n(1 << 20)) // small seeds, as the simulation uses
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// testFillBoundaries pins rngSource to rand.NewSource across the draws
// where its fill rules change. Every seed draws 2,048 values from a fresh
// generator; then a used generator's stream under the previous seed is cut
// after each boundary draw count and reseeded, so the table a reseed
// leaves behind holds stale words at every position the fill rules must
// overwrite before reading.
func testFillBoundaries(t *testing.T) {
	const draws = 2048
	seeds := boundarySeeds()
	want := make([]uint64, draws)
	check := func(label string, seed int64, r *rand.Rand) {
		t.Helper()
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("seed %d, %s: draw %d = %#x, want %#x", seed, label, i, got, w)
			}
		}
	}
	for i, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		for j := range want {
			want[j] = ref.Uint64()
		}
		check("fresh", seed, Reseed(nil, seed))

		prev := seeds[(i+len(seeds)-1)%len(seeds)]
		for _, n := range fillBoundaries {
			used := newRand(prev)
			for k := 0; k < n; k++ {
				used.Uint64()
			}
			check(fmt.Sprintf("reseeded after %d draws", n), seed, Reseed(used, seed))
		}
	}
}

// FuzzRandBitIdentical drives a fresh generator and a used one reseeded
// through (*rand.Rand).Seed next to rand.New(rand.NewSource(seed)) through
// a mix of Int63, Uint64, Intn and Read calls, reseeding all three after
// reseedAt calls, and requires every value to match.
func FuzzRandBitIdentical(f *testing.F) {
	for _, n := range fillBoundaries {
		f.Add(int64(n), uint16(n+1), uint16(0), int64(-n))
		f.Add(int64(0), uint16(2000), uint16(n), int64(int32max))
		f.Add(int64(math.MinInt64), uint16(n+700), uint16(n), int64(math.MaxInt64))
	}
	f.Add(int64(int32max), uint16(2500), uint16(1000), int64(89482311))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseedAt uint16, reseed int64) {
		want := rand.New(rand.NewSource(seed))
		used := newRand(^seed)
		used.Read(make([]byte, 5))
		used.Seed(seed)
		gens := []*rand.Rand{newRand(seed), used}
		var wbuf, gbuf [9]byte
		for i := 0; i < int(draws); i++ {
			if i == int(reseedAt) {
				want.Seed(reseed)
				for _, g := range gens {
					g.Seed(reseed)
				}
			}
			var w uint64
			switch i % 4 {
			case 0:
				w = uint64(want.Int63())
			case 1:
				w = want.Uint64()
			case 2:
				w = uint64(want.Intn(1 + i*7919))
			case 3:
				want.Read(wbuf[:i%len(wbuf)])
			}
			for gi, g := range gens {
				var got uint64
				switch i % 4 {
				case 0:
					got = uint64(g.Int63())
				case 1:
					got = g.Uint64()
				case 2:
					got = uint64(g.Intn(1 + i*7919))
				case 3:
					g.Read(gbuf[:i%len(gbuf)])
					if gbuf != wbuf {
						t.Fatalf("generator %d, call %d: Read %x, want %x", gi, i, gbuf, wbuf)
					}
				}
				if got != w {
					t.Fatalf("generator %d, call %d: drew %#x, want %#x", gi, i, got, w)
				}
			}
		}
	})
}
