package search

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// The pruned pass (scorer.go) must be indistinguishable from the
// score-everything reference: same pages, same order (ties included), same
// float64 scores bit for bit. These tests hold it to that on the shapes
// pruning is most likely to get wrong.

// tinyVocab is the fuzz corpora's vocabulary: stopwords (in every
// document), mid-frequency and rare tokens.
var tinyVocab = struct{ stop, mid, rare []textproc.Token }{
	stop: []textproc.Token{"the", "of", "a b"},
	mid:  []textproc.Token{"m0", "m1", "m2", "m3", "m4"},
	rare: []textproc.Token{"r0", "r1", "r2", "r3", "r4", "r5"},
}

// tinyCorpus draws n small documents from tinyVocab. Roughly a third are
// verbatim copies of an earlier document, so exact score ties — decided by
// document order alone — are the rule, not the exception.
func tinyCorpus(rng *rand.Rand, n int, firstID corpus.PageID) []*corpus.Page {
	pages := make([]*corpus.Page, 0, n)
	for len(pages) < n {
		id := firstID + corpus.PageID(len(pages))
		if len(pages) > 0 && rng.IntN(3) == 0 {
			src := pages[rng.IntN(len(pages))]
			pages = append(pages, page(id, 0, src.ParaTokens(0)...))
			continue
		}
		var words []string
		for _, t := range tinyVocab.stop {
			for i := 1 + rng.IntN(4); i > 0; i-- {
				words = append(words, t)
			}
		}
		for _, t := range tinyVocab.mid {
			if rng.IntN(3) == 0 {
				for i := 1 + rng.IntN(3); i > 0; i-- {
					words = append(words, t)
				}
			}
		}
		for _, t := range tinyVocab.rare {
			if rng.IntN(12) == 0 {
				for i := 1 + rng.IntN(6); i > 0; i-- {
					words = append(words, t)
				}
			}
		}
		rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
		pages = append(pages, page(id, 0, words...))
	}
	return pages
}

// tinyQueries is the query mix of one fuzz input: the fixed adversarial
// shapes plus random draws (which repeat tokens and mix in unseen ones).
func tinyQueries(rng *rand.Rand) [][]textproc.Token {
	v := tinyVocab
	all := append(append(append([]textproc.Token{"zz-unseen"}, v.stop...), v.mid...), v.rare...)
	qs := [][]textproc.Token{
		{v.stop[0], v.stop[1]},            // all stopwords: nothing to prune on
		{v.stop[2], v.stop[2], v.stop[2]}, // one stopword, repeated
		{"zz-unseen"},                     // matches nothing
		{"zz-unseen", v.rare[0]},
		{v.rare[0], v.mid[0], v.rare[0]}, // a repeat around another token
		{v.rare[1], v.rare[2], v.stop[0]},
		{v.mid[1], v.stop[1], v.rare[3]},
	}
	for i := 0; i < 12; i++ {
		q := make([]textproc.Token, 1+rng.IntN(5))
		for j := range q {
			q[j] = all[rng.IntN(len(all))]
		}
		qs = append(qs, q)
	}
	return qs
}

// FuzzPrunedTopKMatchesReference is the exactness gate of the pruned pass,
// the contender test included: on tiny random corpora full of duplicate
// documents it asserts pages and scores equal SearchReference bit for bit,
// tie order included, for k ∈ {1, 5, more than can match}, with and without
// a WithCollectionStats override (the cluster/live shape: statistics of a
// larger collection than the index scored), with every query repeated
// 1–64 times over (long queries drive the contender test's cut towards and
// past its underflow floor) and under the auto-scaled μ or an extreme one.
// CI runs it as a short fuzz-smoke (`make fuzz-smoke`); `go test` replays
// the seeds below.
func FuzzPrunedTopKMatchesReference(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		for _, n := range []uint8{0, 7, 40} {
			f.Add(seed, n, uint8(seed), seed%3 == 0, uint8(0), uint8(0))
		}
	}
	for _, stretch := range []uint8{7, 23, 63} {
		f.Add(uint64(stretch), uint8(40), stretch, stretch == 23, stretch, uint8(0))
	}
	for muSel := uint8(1); muSel < uint8(len(fuzzMus)); muSel++ {
		f.Add(uint64(muSel), uint8(40), muSel, muSel == 2, uint8(0), muSel)
		f.Add(uint64(muSel), uint8(31), muSel+1, false, uint8(9), muSel)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nDocs, kSel uint8, override bool, stretch, muSel uint8) {
		rng := rand.New(rand.NewPCG(seed, 15))
		pages := tinyCorpus(rng, 1+int(nDocs)%48, 0)
		idx := BuildIndex(pages)
		k := []int{1, 5, len(pages) + 3}[kSel%3]
		e := NewEngineOpts(idx, Options{CacheSize: -1}).WithTopK(k)
		if override {
			super := append(pages[:len(pages):len(pages)], tinyCorpus(rng, 1+rng.IntN(30), 1000)...)
			st := StatsOf(BuildIndex(super))
			e = e.WithCollectionStats(st).WithMu(AutoMu(st.NumDocs, st.TotalTokens))
		}
		if mu := fuzzMus[int(muSel)%len(fuzzMus)]; mu != 0 {
			e = e.WithMu(mu)
		}
		for qi, q := range tinyQueries(rng) {
			q = slices.Repeat(q, 1+int(stretch)%64)
			label := fmt.Sprintf("seed %d docs %d k %d override %v mu %v query %d %q",
				seed, len(pages), k, override, e.Mu(), qi, q)
			assertSameResults(t, label, e.SearchReference(q), e.SearchWithSeed(nil, q))
		}
		if visited, scored := e.PassStats(); scored > visited {
			t.Fatalf("pass scored %d documents of %d visited", scored, visited)
		}
	})
}

// fuzzMus is the fuzz target's μ selector: 0 keeps the engine's own.
var fuzzMus = []float64{0, 1e-3, 1, 1e9}

// searchBackend is one way of answering a query over the same pages.
type searchBackend struct {
	name   string
	search func(q []textproc.Token) []Result
}

// seedless is e's search of a query with no seed in front.
func seedless(e *Engine) func(q []textproc.Token) []Result {
	return func(q []textproc.Token) []Result { return e.SearchWithSeed(nil, q) }
}

// prunedBackends builds, over pages, the three places the one scoring pass
// runs: a frozen engine, a 3-segment live view (two sealed segments and
// the memtable) and a 3-partition cluster merge with global statistics.
// ref is the frozen engine whose SearchReference all three must equal.
func prunedBackends(t *testing.T, pages []*corpus.Page, k int) (ref *Engine, out []searchBackend) {
	t.Helper()
	fullIdx := BuildIndex(pages)
	ref = NewEngineOpts(fullIdx, Options{CacheSize: -1}).WithTopK(k)
	out = append(out, searchBackend{"frozen", seedless(ref)})

	le := NewLiveEngine(nil, Options{CacheSize: -1}, LiveOptions{
		TopK: k, MemtableDocs: len(pages) + 1, CompactFanIn: -1})
	a, b := len(pages)/3, 2*len(pages)/3
	le.Add(pages[:a]...)
	le.Seal()
	le.Add(pages[a:b]...)
	le.Seal()
	le.Add(pages[b:]...)
	if got := le.Metrics().Segments; got != 3 {
		t.Fatalf("live view has %d segments, want 3", got)
	}
	out = append(out, searchBackend{"live3", seedless(le.View())})

	global := StatsOf(fullIdx)
	var parts []*Engine
	for _, grp := range NewRing(3, 1, 0).PartitionPages(pages) {
		parts = append(parts, NewEngineOpts(BuildIndex(grp), Options{CacheSize: -1}).
			WithTopK(k).WithCollectionStats(global).WithMu(ref.Mu()))
	}
	byID := make(map[corpus.PageID]*corpus.Page, len(pages))
	for _, p := range pages {
		byID[p.ID] = p
	}
	out = append(out, searchBackend{"cluster3", func(q []textproc.Token) []Result {
		lists := make([][]RankedDoc, len(parts))
		for p, e := range parts {
			for _, r := range e.SearchWithSeed(nil, q) {
				lists[p] = append(lists[p], RankedDoc{Doc: int64(r.Page.ID), Score: r.Score})
			}
		}
		var res []Result
		for _, rd := range MergeTopKAppend(nil, k, lists) {
			res = append(res, Result{Page: byID[corpus.PageID(rd.Doc)], Score: rd.Score})
		}
		return res
	}})
	return ref, out
}

// TestPrunedExactAcrossBackends holds the pruned pass to the reference
// everywhere it runs — frozen, per live segment, per cluster partition —
// on a synthetic query mix and on the case a careless bound gets wrong:
// the best documents do not contain the query's rarest token.
func TestPrunedExactAcrossBackends(t *testing.T) {
	synthPages, synthQueries := diffCorpus(t, 29)

	// "zeta" is the rarest token (one very long document); the pages that
	// score best for the query are short and full of "alpha"/"beta", and
	// hold no "zeta" at all. The pass visits zeta's list first, fills a
	// k=1 heap from it, and must still go on.
	long := []string{"zeta", "the"}
	for len(long) < 400 {
		long = append(long, "filler")
	}
	lacking := []*corpus.Page{page(0, 0, long...)}
	for i := 1; i <= 6; i++ {
		lacking = append(lacking, page(corpus.PageID(i), 0, "alpha", "alpha", "beta", "beta", "the"))
	}
	for i := 7; i <= 12; i++ {
		lacking = append(lacking, page(corpus.PageID(i), 0, "the", "filler", "gamma", "gamma", "the"))
	}
	lackingQueries := [][]textproc.Token{
		{"zeta", "alpha", "beta"},
		{"alpha", "zeta"},
		{"zeta", "the"},
	}

	for _, tc := range []struct {
		name    string
		pages   []*corpus.Page
		queries [][]textproc.Token
		// topLacks, when set, is a token the reference's best hit for
		// queries[0] must not contain — the premise of the case.
		topLacks textproc.Token
	}{
		{name: "synthetic", pages: synthPages, queries: synthQueries},
		{name: "best-lack-rarest", pages: lacking, queries: lackingQueries, topLacks: "zeta"},
	} {
		for _, k := range []int{1, 5} {
			ref, backends := prunedBackends(t, tc.pages, k)
			if tc.topLacks != "" {
				top := ref.SearchReference(tc.queries[0])
				if len(top) == 0 || top[0].Page.HasToken(tc.topLacks) {
					t.Fatalf("%s: premise broken: best hit for %q holds %q", tc.name, tc.queries[0], tc.topLacks)
				}
			}
			for _, b := range backends {
				for qi, q := range tc.queries {
					label := fmt.Sprintf("%s/%s k=%d query %d %q", tc.name, b.name, k, qi, q)
					assertSameResults(t, label, ref.SearchReference(q), b.search(q))
				}
			}
		}
	}
}

// TestScoreBoundsFromEveryConstructor checks that both index constructors,
// and the live engine's sealed and compacted segments, leave the pruning
// inputs — every list's maxTf, the index's minDocLen — and each list's
// collection frequency equal to what the postings and document lengths
// say, with every list strictly ascending by document.
func TestScoreBoundsFromEveryConstructor(t *testing.T) {
	pages, _ := diffCorpus(t, 3)
	built := BuildIndex(pages)
	dump := map[textproc.Token][]RawPosting{}
	built.DumpPostings(func(term textproc.Token, posts []RawPosting) {
		dump[term] = append([]RawPosting(nil), posts...)
	})
	restored, err := RestoreIndex(pages, dump)
	if err != nil {
		t.Fatal(err)
	}
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: len(pages) + 1, CompactFanIn: -2})
	le.Add(pages[:len(pages)/2]...)
	le.Seal()
	le.Add(pages[len(pages)/2:]...)
	le.Seal()
	sealed := le.View().Index()
	le.Compact()
	if got := le.Metrics().Segments; got != 1 {
		t.Fatalf("live view has %d segments after compaction, want 1", got)
	}
	for name, idx := range map[string]*Index{
		"BuildIndex":        built,
		"RestoreIndex":      restored,
		"sealed segment":    sealed,
		"compacted segment": le.View().Index(),
	} {
		minLen := 0
		for _, n := range idx.docLen {
			if n > 0 && (minLen == 0 || n < minLen) {
				minLen = n
			}
		}
		if idx.minDocLen != minLen || minLen == 0 {
			t.Fatalf("%s: minDocLen = %d, document lengths say %d", name, idx.minDocLen, minLen)
		}
		if len(idx.terms) != len(idx.lists) || (name != "sealed segment" && idx.NumTerms() != built.NumTerms()) {
			t.Fatalf("%s: %d terms over %d posting lists, want %d", name, len(idx.terms), len(idx.lists), built.NumTerms())
		}
		for tok, i := range idx.terms {
			pl := idx.lists[i]
			var maxTf int32
			collFreq := 0
			for j, p := range pl.posts {
				if j > 0 && p.doc <= pl.posts[j-1].doc {
					t.Fatalf("%s: %q postings not strictly ascending at %d", name, tok, j)
				}
				maxTf = max(maxTf, p.tf)
				collFreq += int(p.tf)
			}
			if pl.maxTf != maxTf || maxTf == 0 || pl.collFreq != collFreq {
				t.Fatalf("%s: %q maxTf = %d, collFreq = %d, postings say %d, %d",
					name, tok, pl.maxTf, pl.collFreq, maxTf, collFreq)
			}
		}
	}
}
