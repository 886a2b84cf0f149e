package eval

import "sync"

// RunParallel runs n independent tasks, fn(0) … fn(n-1), on a bounded pool
// of up to workers goroutines, and returns when all have finished. It is
// the one worker-pool shape every harness layer shares — per-trial fan-out
// (RateStats), per-individual fan-out (Evaluator.BatchFitness), and the
// fleet's per-cell wave dispatch — so the layers compose without each
// reimplementing channel plumbing.
//
// Tasks must be independent: fn typically writes only results[i]. With
// workers <= 1 the tasks run inline on the caller's goroutine in index
// order, which keeps single-worker runs goroutine-free (the alloc-budget
// tests rely on that) and trivially deterministic.
func RunParallel(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
