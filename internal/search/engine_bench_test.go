package search

import (
	"testing"

	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// benchCorpus builds one paper-shaped corpus (120 entities × 30 pages) and
// a pool of realistic queries (entity seeds — the hottest query shape in
// domain learning and selector scoring).
func benchCorpus(b *testing.B) ([]*Index, [][]textproc.Token) {
	b.Helper()
	cfg := synth.TestConfig(synth.DomainResearchers)
	cfg.NumEntities = 120
	cfg.PagesPerEntity = 30
	g, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx := BuildIndex(g.Corpus.Pages)
	var qs [][]textproc.Token
	for _, e := range g.Corpus.Entities[:60] {
		qs = append(qs, g.Tokenizer.Tokenize(e.SeedQuery))
	}
	return []*Index{idx}, qs
}

// BenchmarkIndexBuildCold measures a from-scratch build of the
// benchmark's collection (bench/: 996 researchers × 50 pages, seed 2016) —
// what every l2qserve process pays before it can serve.
func BenchmarkIndexBuildCold(b *testing.B) {
	g, err := synth.Generate(synth.DefaultConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	pages := g.Corpus.Pages
	for _, p := range pages {
		p.Tokens() // warm token caches so the build itself is measured
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildIndex(pages)
	}
}

// BenchmarkHotSingleQuery compares one repeated query on the reference
// path, the engine's pruned pass without cache, and the full engine (cache on —
// the domain-learning/selector-evaluation steady state).
func BenchmarkHotSingleQuery(b *testing.B) {
	idxs, qs := benchCorpus(b)
	q := qs[0]
	b.Run("reference", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{CacheSize: -1})
		for i := 0; i < b.N; i++ {
			e.SearchReference(q)
		}
	})
	b.Run("engine-nocache", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{CacheSize: -1})
		for i := 0; i < b.N; i++ {
			e.SearchWithSeed(nil, q)
		}
	})
	b.Run("engine-cached", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{})
		for i := 0; i < b.N; i++ {
			e.SearchWithSeed(nil, q)
		}
	})
}

// BenchmarkConcurrentManyQueries models HarvestPipelined / cmd/l2qserve load:
// many goroutines cycling through a shared query pool against one engine.
// The acceptance comparison is reference vs. engine (cache on).
func BenchmarkConcurrentManyQueries(b *testing.B) {
	idxs, qs := benchCorpus(b)
	run := func(b *testing.B, search func([]textproc.Token) []Result) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				search(qs[i%len(qs)])
				i++
			}
		})
	}
	b.Run("reference", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{CacheSize: -1})
		run(b, e.SearchReference)
	})
	b.Run("engine-nocache", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{CacheSize: -1})
		run(b, seedless(e))
	})
	b.Run("engine-cached", func(b *testing.B) {
		e := NewEngineOpts(idxs[0], Options{})
		run(b, seedless(e))
	})
}
