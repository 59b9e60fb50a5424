// Package par provides the one bounded parallel-for shared by the
// CPU-bound fan-outs of the reproduction — the domain phase's sharded
// counting pass (core), per-aspect classifier training (classify), the
// eval environment's warm-ups and its per-entity harvests — so the
// worker-pool idiom lives in exactly one place. One inference step is not
// among them: its passes are tens of microseconds, less than starting the
// goroutines costs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) over a bounded worker pool, following the repo's
// worker-knob convention (core.Config.LearnWorkers): 0
// picks GOMAXPROCS, negative means serial. The pool never exceeds n; a
// single worker runs inline. Iterations must be independent; each index
// is executed exactly once. A panicking fn crashes the process (as an
// inline loop would) — do not use For for work that recovers.
func For(n, workers int, fn func(int)) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
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
