// Package par provides the one parallel-for shared by the CPU-bound
// fan-outs of the reproduction — per-aspect domain learning
// (core.LearnAspects) and classifier training (classify), the eval
// environment's splits and per-entity harvests — so the worker-pool idiom
// lives in exactly one place. Only independent units fan out: the domain
// phase's counting pass inside one aspect is serial, and one inference
// step is not among them either (its passes are tens of microseconds, less
// than starting the goroutines costs).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) over GOMAXPROCS workers, never more than n; a
// single worker runs inline. Iterations must be independent; each index
// is executed exactly once. Nested calls are fine: Go multiplexes every
// worker onto GOMAXPROCS threads. A panicking fn crashes the process (as
// an inline loop would) — do not use For for work that recovers.
func For(n int, fn func(int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
