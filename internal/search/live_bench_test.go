package search

import (
	"context"
	"sync"
	"testing"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// liveBenchCorpus builds the benchCorpus page set plus a donor corpus
// (different generator seed) whose pages feed the live-ingest arms, and
// the shared seed-query pool.
func liveBenchCorpus(b *testing.B) (base, donors []*corpus.Page, qs [][]textproc.Token) {
	b.Helper()
	cfg := synth.TestConfig(synth.DomainResearchers)
	cfg.NumEntities = 120
	cfg.PagesPerEntity = 30
	g, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base = g.Corpus.Pages
	dcfg := cfg
	dcfg.Seed = cfg.Seed + 1
	dcfg.NumEntities = 40
	dg, err := synth.Generate(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	donors = dg.Corpus.Pages
	for _, p := range base {
		p.Tokens() // warm token caches so arms measure scoring, not parsing
	}
	for _, p := range donors {
		p.Tokens()
	}
	for _, e := range g.Corpus.Entities[:60] {
		qs = append(qs, g.Tokenizer.Tokenize(e.SeedQuery))
	}
	return base, donors, qs
}

// BenchmarkLiveSearchAllocs is BenchmarkSearchAllocs on a multi-segment
// LiveEngine — the gate (scripts/alloc_gate.sh) pins the live cache-hit
// path at the frozen engine's ceilings even with the generational layout
// in front:
//
//	cached/append    Retrieve into a reused buffer on a warm
//	                 epoch-keyed cache. Pinned at 0 allocs/op.
//	cached           SearchWithSeed on a warm cache: the fresh result slice.
//	nocache/append   a multi-segment miss into a reused buffer: one pruned
//	                 pass per segment and the merge, all over pooled
//	                 scratch. Pinned at 0 allocs/op.
//
// Renaming a benchmark breaks the gate — update the script in the same
// change.
func BenchmarkLiveSearchAllocs(b *testing.B) {
	base, _, qs := liveBenchCorpus(b)
	q := qs[0]
	// Background compaction off and a small memtable, so the engine is
	// guaranteed to hold several segments while the gate measures.
	mk := func(b *testing.B) *LiveEngine {
		le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 64, CompactFanIn: -1})
		le.Add(base[:400]...)
		if m := le.Metrics(); m.Segments < 2 {
			b.Fatalf("want a multi-segment view, got %d segment(s)", m.Segments)
		}
		return le
	}
	b.Run("cached/append", func(b *testing.B) {
		le := mk(b)
		var dst []Result
		ctx := context.Background()
		dst, _ = le.Retrieve(ctx, dst, q[:1], q[1:]) // warm the cache
		if len(dst) == 0 {
			b.Fatal("no hits")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = le.Retrieve(ctx, dst[:0], q[:1], q[1:])
		}
	})
	b.Run("cached", func(b *testing.B) {
		le := mk(b)
		v := le.View()
		if len(v.SearchWithSeed(nil, q)) == 0 {
			b.Fatal("no hits")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.SearchWithSeed(nil, q)
		}
	})
	b.Run("nocache/append", func(b *testing.B) {
		v := mk(b).View().WithCache(-1)
		var dst []Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = v.SearchWithSeedAppend(dst[:0], nil, q)
		}
		if len(dst) == 0 {
			b.Fatal("no hits")
		}
	})
}

// BenchmarkLiveIngestSearch is the engine-level comparison of the
// generational engine: sustained search throughput while ingesting against
// a frozen engine over the same starting corpus, reported as qps per arm.
// It is not a gate — the ratio depends on spare cores for the ingester
// (0.83 on CI's runners when recorded, ≈ 0.5 on 2 cores); serving under
// ingest is measured from real processes by bench's search_live_ingest.
//
// Both arms disable the query cache — the bar measures scoring capacity
// over the segmented view, not cache-hit ratios — and score serially per
// query so RunParallel owns the parallelism.
//
//	frozen        BuildIndex once, search only.
//	live-ingest   the same pages ingested through Add (sealing and
//	              background-compacting along the way), searched while a
//	              paced ingester keeps feeding donor pages.
func BenchmarkLiveIngestSearch(b *testing.B) {
	base, donors, qs := liveBenchCorpus(b)
	search := func(b *testing.B, searchAppend func([]Result, []textproc.Token) []Result) {
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var dst []Result
			i := 0
			for pb.Next() {
				dst = searchAppend(dst[:0], qs[i%len(qs)])
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	}
	b.Run("frozen", func(b *testing.B) {
		e := NewEngineOpts(BuildIndex(base), Options{CacheSize: -1})
		search(b, func(dst []Result, q []textproc.Token) []Result { return e.SearchWithSeedAppend(dst, nil, q) })
	})
	b.Run("live-ingest", func(b *testing.B) {
		le := NewLiveEngine(nil, Options{CacheSize: -1}, LiveOptions{})
		for lo := 0; lo < len(base); lo += 128 {
			hi := lo + 128
			if hi > len(base) {
				hi = len(base)
			}
			le.Add(base[lo:hi]...)
		}
		le.Quiesce() // start from the steady-state segment layout
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // paced ingester: ~500 docs/s of live churn
			defer wg.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			i := 0
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					le.Add(donors[i%len(donors)])
					i++
				}
			}
		}()
		search(b, func(dst []Result, q []textproc.Token) []Result { return le.View().SearchWithSeedAppend(dst, nil, q) })
		close(stop)
		wg.Wait()
	})
}
