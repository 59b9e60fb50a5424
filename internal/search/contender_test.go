package search

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// The contender test (scorer.go) decides, without a logarithm, which
// documents of a walk are not worth scoring. These tests hold it to the
// reference where it could go wrong — ties at the k-th score, a cut that
// cannot be trusted — and check that it still cuts where it should.

// harvestCorpus is the corpus the contender test's work is counted on:
// synth.TestConfig grown to 120 entities × 30 pages, because on the
// 384-page default a query's lists are so short that filling the heap and
// the improvements that follow are a third of all visits — there is
// nothing yet to cut.
func harvestCorpus(tb testing.TB) *synth.Generated {
	tb.Helper()
	cfg := synth.TestConfig(synth.DomainResearchers)
	cfg.NumEntities, cfg.PagesPerEntity = 120, 30
	g, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// windowQueries draws n harvest-shaped queries over g: an entity's seed
// followed by a 1–3-token window of one of that entity's own pages (what a
// harvester fires, and the benchmark's search traffic).
func windowQueries(g *synth.Generated, n int, seed uint64) [][]textproc.Token {
	rng := rand.New(rand.NewPCG(seed, 26))
	ents := g.Corpus.Entities
	qs := make([][]textproc.Token, 0, n)
	for len(qs) < n {
		e := ents[rng.IntN(len(ents))]
		pages := g.Corpus.PagesOf(e.ID)
		toks := pages[rng.IntN(len(pages))].Tokens()
		w := min(1+rng.IntN(3), len(toks))
		start := rng.IntN(len(toks) - w + 1)
		q := append(g.Tokenizer.Tokenize(e.SeedQuery), toks[start:start+w]...)
		qs = append(qs, q)
	}
	return qs
}

// TestContenderTestKeepsTies: with many bit-identical pages, many documents
// score exactly the heap's k-th score. None of them may be skipped on the
// product's say-so, or the lower-ordinal rule would pick different pages.
func TestContenderTestKeepsTies(t *testing.T) {
	var pages []*corpus.Page
	add := func(n int, words ...string) {
		for i := 0; i < n; i++ {
			pages = append(pages, page(corpus.PageID(len(pages)), 0, words...))
		}
	}
	// Worse pages first (they fill the heap), then runs of identical
	// better ones, interleaved so ties span all three partitions and
	// segments. "xx" and "yy" are equally frequent and never share a page,
	// so for the query xx yy a page of either kind scores the same two
	// logarithms in the other order — the same float — and the pass, which
	// walks xx's list first, meets the lower-numbered half of the tie with
	// its heap already full of the other half.
	for r := 0; r < 4; r++ {
		add(3, "marc", "the", "the", "filler", "filler", "filler", "other")
		add(6, "yy", "zz")
		add(6, "xx", "zz")
		add(12, "marc", "snir", "research", "the")
		add(3, "marc", "snir", "research", "research", "the")
		add(12, "snir", "research", "the", "marc")
	}
	queries := [][]textproc.Token{
		{"marc", "snir", "research"},
		{"marc", "snir"},
		{"marc", "the"},
		{"snir", "research", "the", "filler"},
		{"xx", "yy"},
	}
	for _, k := range []int{1, 5} {
		ref, backends := prunedBackends(t, pages, k)
		for _, q := range queries {
			want := ref.SearchReference(q)
			if tied := countScore(ref.WithTopK(len(pages)).SearchReference(q), want[len(want)-1].Score); tied < 2*k {
				t.Fatalf("premise broken: k=%d query %q has %d documents at the k-th score, want ≥ %d", k, q, tied, 2*k)
			}
			for _, b := range backends {
				assertSameResults(t, fmt.Sprintf("%s k=%d query %q", b.name, k, q), want, b.search(q))
			}
		}
	}
}

func countScore(res []Result, score float64) int {
	n := 0
	for _, r := range res {
		if r.Score == score {
			n++
		}
	}
	return n
}

// negativeStat reports one token's collection frequency as −2, as a
// foreign StatSource might: that token's p(t|C) is below zero and a
// document without it scores log(negative) = NaN.
type negativeStat struct {
	*CollectionStats
	tok textproc.Token
}

func (s negativeStat) StatCollFreq(t textproc.Token) int {
	if t == s.tok {
		return -2
	}
	return s.CollectionStats.StatCollFreq(t)
}

// TestContenderTestDegrades: where the cut cannot be trusted — it
// underflows, the statistics are not a probability model, μ is extreme —
// the pass still equals the reference, and where the test is off every
// visited document is scored.
func TestContenderTestDegrades(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 15))
	pages := tinyCorpus(rng, 48, 0)
	idx := BuildIndex(pages)
	base := NewEngineOpts(idx, Options{CacheSize: -1})
	v := tinyVocab

	// 200 tokens, half of them in no document: the best score is below
	// log 2⁻⁹⁰⁰ ≈ −624, where the cut is 0.
	long := make([]textproc.Token, 0, 200)
	for len(long) < 200 {
		long = append(long, v.stop[len(long)%3], "zz-unseen", v.rare[len(long)%6], "zz-unseen")
	}
	if best := base.SearchReference(long)[0].Score; best > -700 {
		t.Fatalf("premise broken: the long query's best score is %v, want below -700", best)
	}

	// Every document holds the stopword, so with its count negative no
	// candidate of a stopword-led query scores NaN — only the pass's own
	// bound arithmetic does, and the reference stays well defined.
	neg := &Engine{segs: []segment{{idx: idx}}, mu: base.mu, topK: base.topK, pass: new(passCounters),
		stats: negativeStat{StatsOf(idx), v.stop[0]}}

	for _, tc := range []struct {
		name    string
		e       *Engine
		queries [][]textproc.Token
		testOff bool // the contender test must not have run
	}{
		{"long query", base, [][]textproc.Token{long}, true},
		{"negative count", neg, [][]textproc.Token{{v.stop[0]}, {v.stop[0], v.stop[0], v.stop[0]}}, true},
		{"mu 1e-3", base.WithMu(1e-3), tinyQueries(rng), false},
		{"mu 1e9", base.WithMu(1e9), tinyQueries(rng), false},
	} {
		for _, k := range []int{1, 5} {
			e := tc.e.WithTopK(k)
			v0, s0 := e.PassStats()
			for qi, q := range tc.queries {
				assertSameResults(t, fmt.Sprintf("%s k=%d query %d", tc.name, k, qi), e.SearchReference(q), e.SearchWithSeed(nil, q))
			}
			visited, scored := e.PassStats()
			visited, scored = visited-v0, scored-s0
			if scored > visited || visited == 0 {
				t.Fatalf("%s k=%d: scored %d of %d visited documents", tc.name, k, scored, visited)
			}
			if tc.testOff && scored != visited {
				t.Fatalf("%s k=%d: contender test ran where it cannot be trusted: scored %d of %d", tc.name, k, scored, visited)
			}
		}
	}
}

// TestContenderTestCuts: on harvest-shaped queries the test must spare
// most visited documents their logarithms — a refactor that silently
// disables it fails here — with results equal to the reference.
func TestContenderTestCuts(t *testing.T) {
	g := harvestCorpus(t)
	e := NewEngineOpts(BuildIndex(g.Corpus.Pages), Options{CacheSize: -1})
	for qi, q := range windowQueries(g, 200, 1) {
		assertSameResults(t, fmt.Sprintf("query %d %q", qi, q), e.SearchReference(q), e.SearchWithSeed(nil, q))
	}
	visited, scored := e.PassStats()
	t.Logf("200 queries: %d documents visited, %d scored", visited, scored)
	if scored >= visited/4 {
		t.Fatalf("contender test cut too little: scored %d of %d visited documents, want under a quarter", scored, visited)
	}
}

// BenchmarkSearchMiss is the cost of one cache miss on harvest-shaped
// queries (cache off, so every search is one), with the pass's work beside
// it: documents that reached the contender test and documents scored
// exactly, per query.
func BenchmarkSearchMiss(b *testing.B) {
	g := harvestCorpus(b)
	e := NewEngineOpts(BuildIndex(g.Corpus.Pages), Options{CacheSize: -1})
	qs := windowQueries(g, 512, 1)
	var dst []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.SearchWithSeedAppend(dst[:0], nil, qs[i%len(qs)])
	}
	visited, scored := e.PassStats()
	b.ReportMetric(float64(visited)/float64(b.N), "docs_visited/op")
	b.ReportMetric(float64(scored)/float64(b.N), "docs_scored/op")
}
