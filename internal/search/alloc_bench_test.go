package search

import (
	"context"
	"testing"
)

// BenchmarkSearchAllocs is the query-path allocation trajectory the CI
// gate (scripts/alloc_gate.sh) pins, measured on the benchCorpus engine:
//
//	cached/append    Retrieve (the session retriever contract, which
//	                 every other search method shares its path with) into
//	                 a reused buffer on a warm cache — the session-step /
//	                 selector steady state. Pinned at 0 allocs/op.
//	cached           SearchWithSeed on a warm cache: the one allocation is
//	                 the fresh result slice handed to the caller.
//	nocache/append   SearchWithSeedAppend into a reused buffer: the full
//	                 pruned scoring pass with pooled scratch.
//
// Renaming a benchmark breaks the gate — update the script in the same
// change.
func BenchmarkSearchAllocs(b *testing.B) {
	idxs, qs := benchCorpus(b)
	q := qs[0]
	b.Run("cached/append", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{})
		var dst []Result
		ctx := context.Background()
		dst, _ = e.Retrieve(ctx, dst, q[:1], q[1:]) // warm the cache
		if len(dst) == 0 {
			b.Fatal("no hits")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = e.Retrieve(ctx, dst[:0], q[:1], q[1:])
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{})
		if len(e.SearchWithSeed(nil, q)) == 0 {
			b.Fatal("no hits")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.SearchWithSeed(nil, q)
		}
	})
	b.Run("nocache/append", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{CacheSize: -1})
		var dst []Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = e.SearchWithSeedAppend(dst[:0], nil, q)
		}
		if len(dst) == 0 {
			b.Fatal("no hits")
		}
	})
}

// BenchmarkSearchAppendConcurrent drives SearchWithSeedAppend from many
// goroutines against one engine (each with its own destination buffer,
// sharing the pooled scoring scratch) — the l2qserve steady state. Run
// under -race by TestConcurrentSearchAppendRace; here it tracks the
// contended allocation picture.
func BenchmarkSearchAppendConcurrent(b *testing.B) {
	idxs, qs := benchCorpus(b)
	e := NewEngineOpts(idxs[0], Options{})
	for _, q := range qs { // warm the cache so the steady state is measured
		e.SearchWithSeed(nil, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []Result
		i := 0
		for pb.Next() {
			dst = e.SearchWithSeedAppend(dst[:0], nil, qs[i%len(qs)])
			i++
		}
	})
}
