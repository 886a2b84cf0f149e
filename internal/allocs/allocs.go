// Package allocs measures allocation budgets exactly. testing.AllocsPerRun
// divides a run's allocations by the number of runs in integer arithmetic,
// so a budget of B admits any true mean below B+1, and a zero budget admits
// 0.99 allocations per op. Mean returns the exact fraction, so a budget of
// 0 means that no measured run allocated at all.
package allocs

import "runtime"

// Mean calls f warm times to reach its steady state, then runs more times,
// and returns the mean number of heap allocations per call over the second
// batch, read from runtime.MemStats.Mallocs. It pins GOMAXPROCS to 1 for
// the measurement, as testing.AllocsPerRun does, so that no other
// goroutine's work is counted.
func Mean(warm, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < warm; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
