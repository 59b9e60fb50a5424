package search

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// diffCorpus generates one synthetic corpus per seed for differential
// testing (paper-shaped pages, realistic vocabulary skew).
func diffCorpus(t testing.TB, seed uint64) ([]*corpus.Page, [][]textproc.Token) {
	t.Helper()
	cfg := synth.TestConfig(synth.DomainResearchers)
	cfg.NumEntities = 40
	cfg.PagesPerEntity = 12
	cfg.Seed = seed
	g, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Query mix: entity seeds, seed∥aspect-word combos, random token
	// pairs/triples drawn from the corpus, duplicates, and OOV terms.
	rng := rand.New(rand.NewPCG(seed, 99))
	var vocab []textproc.Token
	seen := map[textproc.Token]bool{}
	for _, p := range g.Corpus.Pages[:30] {
		for _, tok := range p.Tokens() {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
	}
	pick := func() textproc.Token { return vocab[rng.IntN(len(vocab))] }
	var queries [][]textproc.Token
	for _, e := range g.Corpus.Entities[:15] {
		st := g.Tokenizer.Tokenize(e.SeedQuery)
		queries = append(queries, st)
		queries = append(queries, append(append([]textproc.Token{}, st...), pick()))
	}
	for i := 0; i < 40; i++ {
		q := []textproc.Token{pick(), pick()}
		if i%3 == 0 {
			q = append(q, pick())
		}
		if i%5 == 0 {
			q = append(q, q[0]) // duplicate token
		}
		queries = append(queries, q)
	}
	queries = append(queries,
		[]textproc.Token{"zz-out-of-vocabulary"},
		[]textproc.Token{pick(), "zz-out-of-vocabulary"},
	)
	return g.Corpus.Pages, queries
}

// assertSameResults checks rank equality and bit-for-bit score equality.
func assertSameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: result count %d != reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Page.ID != got[i].Page.ID {
			t.Fatalf("%s: rank %d page %d != reference page %d",
				label, i, got[i].Page.ID, want[i].Page.ID)
		}
		if want[i].Score != got[i].Score {
			t.Fatalf("%s: rank %d score %v != reference %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestEngineMatchesReference is the engine's differential guarantee: the
// pruned, heap-ranked, cached search returns identical rankings and scores
// to the retained score-everything reference, across topK values and
// seeds.
func TestEngineMatchesReference(t *testing.T) {
	for _, seed := range []uint64{7, 2016} {
		pages, queries := diffCorpus(t, seed)
		idx := BuildIndex(pages)
		for _, topK := range []int{1, 5, 50} {
			e := NewEngine(idx).WithTopK(topK)
			for _, q := range queries {
				want := e.SearchReference(q)
				assertSameResults(t, "miss", want, e.SearchWithSeed(nil, q))
				// Second call exercises the cache hit path.
				assertSameResults(t, "cached", want, e.SearchWithSeed(nil, q))
			}
		}
	}
}

// TestDumpRestoreAcrossShardCounts round-trips the postings through the
// store's Dump/Restore surface: the restored index ranks like the built
// one. (There is one layout now; the name is kept so the test's id in the
// suite's history does not change.)
func TestDumpRestoreAcrossShardCounts(t *testing.T) {
	pages, queries := diffCorpus(t, 21)
	src := BuildIndex(pages)
	dump := map[textproc.Token][]RawPosting{}
	src.DumpPostings(func(term textproc.Token, posts []RawPosting) {
		dump[term] = append([]RawPosting(nil), posts...)
	})
	restored, err := RestoreIndex(pages, dump)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewEngine(src), NewEngine(restored)
	for _, q := range queries {
		assertSameResults(t, "restored", a.SearchWithSeed(nil, q), b.SearchWithSeed(nil, q))
	}
}

// TestRestoreIndexRejectsBadPostings feeds RestoreIndex the three kinds of
// dump it must refuse — a store file is input from outside the program. A
// repeated document would otherwise be scored once per entry and appear
// twice in one result list.
func TestRestoreIndexRejectsBadPostings(t *testing.T) {
	pages := smallIndex().docs
	for _, tc := range []struct {
		name  string
		posts []RawPosting
		want  string
	}{
		{"doc out of range", []RawPosting{{Doc: 0, TF: 1}, {Doc: int32(len(pages)), TF: 1}}, "references doc"},
		{"negative doc", []RawPosting{{Doc: -1, TF: 1}}, "references doc"},
		{"non-positive tf", []RawPosting{{Doc: 0, TF: 2}, {Doc: 1, TF: 0}}, "non-positive tf"},
		{"document named twice", []RawPosting{{Doc: 3, TF: 2}, {Doc: 3, TF: 5}, {Doc: 1, TF: 1}}, "twice"},
	} {
		idx, err := RestoreIndex(pages, map[textproc.Token][]RawPosting{
			"fine":  {{Doc: 0, TF: 1}, {Doc: 2, TF: 3}},
			"token": tc.posts,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreIndex = %v, %v; want an error containing %q", tc.name, idx, err, tc.want)
		}
	}
}

// TestCacheHitsAndIsolation checks that repeated queries hit the cache,
// that hits return correct (and independently mutable) slices, and that
// engine copies with different scoring parameters never share a cache.
func TestCacheHitsAndIsolation(t *testing.T) {
	pages, queries := diffCorpus(t, 5)
	idx := BuildIndex(pages)
	e := NewEngine(idx)
	q := queries[0]
	first := e.SearchWithSeed(nil, q)
	if h, m := e.CacheStats(); h != 0 || m == 0 {
		t.Fatalf("after first search: hits=%d misses=%d", h, m)
	}
	second := e.SearchWithSeed(nil, q)
	if h, _ := e.CacheStats(); h == 0 {
		t.Fatal("second identical search did not hit the cache")
	}
	assertSameResults(t, "cache", first, second)
	// Mutating a returned slice must not corrupt the cache.
	if len(second) > 0 {
		second[0] = Result{}
		third := e.SearchWithSeed(nil, q)
		assertSameResults(t, "cache-after-mutation", first, third)
	}

	// A re-tuned copy must not see the old cache's entries as its own.
	sharp := e.WithMu(1)
	want := sharp.SearchReference(q)
	assertSameResults(t, "fresh-cache-after-WithMu", want, sharp.SearchWithSeed(nil, q))

	// Disabled cache still returns correct results and reports no stats.
	off := e.WithCache(-1)
	assertSameResults(t, "cache-off", off.SearchReference(q), off.SearchWithSeed(nil, q))
	if h, m := off.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache reported stats %d/%d", h, m)
	}
}

// TestCacheEviction fills a tiny cache past capacity and checks both that
// evicted entries recompute correctly and that the cache never grows
// beyond its bound (indirectly: every answer stays correct).
func TestCacheEviction(t *testing.T) {
	pages, queries := diffCorpus(t, 31)
	idx := BuildIndex(pages)
	e := NewEngineOpts(idx, Options{CacheSize: 4})
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			assertSameResults(t, "eviction", e.SearchReference(q), e.SearchWithSeed(nil, q))
		}
	}
}

// TestConcurrentSearchWithCache hammers one shared engine (cache enabled,
// pooled scoring scratch) from many goroutines; run under -race in CI.
// Every goroutine validates every result against the reference.
func TestConcurrentSearchWithCache(t *testing.T) {
	pages, queries := diffCorpus(t, 11)
	idx := BuildIndex(pages)
	e := NewEngineOpts(idx, Options{CacheSize: 16})
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i] = e.SearchReference(q)
	}
	var wg sync.WaitGroup
	errCh := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qi := (i*7 + w) % len(queries)
				got := e.SearchWithSeed(nil, queries[qi])
				if len(got) != len(want[qi]) {
					errCh <- "result count changed under concurrency"
					return
				}
				for r := range got {
					if got[r].Page.ID != want[qi][r].Page.ID || got[r].Score != want[qi][r].Score {
						errCh <- "ranking changed under concurrency"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if msg, ok := <-errCh; ok {
		t.Fatal(msg)
	}
}

// TestTopKHeapMatchesSort property-tests the heap against a full sort on
// random candidate streams, including heavy score ties.
func TestTopKHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(300)
		k := 1 + rng.IntN(20)
		cands := make([]cand, n)
		h := topKHeap[cand]{k: k, better: betterCand}
		for i := range cands {
			// Coarse scores force ties so the doc-order tie-break is hit.
			cands[i] = cand{doc: int32(i), score: float64(rng.IntN(8))}
			h.push(cands[i])
		}
		bySort := append([]cand(nil), cands...)
		sortCands(bySort)
		if k > n {
			k = n
		}
		got := append([]cand(nil), h.h...)
		sortCands(got)
		for i := 0; i < k; i++ {
			if bySort[i] != got[i] {
				t.Fatalf("trial %d: heap top-%d diverges from sort at rank %d", trial, k, i)
			}
		}
	}
}

func sortCands(cs []cand) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && betterCand(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// TestCacheKeyIsInjective is the regression test for the engine's one
// cache key, (epoch, k, tokens). A separator-joined key let a token holding
// the separator byte collide with the token list it spells, and the second
// caller was served the first one's ranking; tokens arrive URL-decoded off
// the network, so any byte can occur in one. And each number must end where
// its own encoding says, not where the next byte stops looking like a
// digit: with the epoch in decimal and nothing after it, epoch 1 at k = 50
// spelled "12…" — byte 50 is '2' — and so did epoch 12; epoch 1 at k = 48
// ('0') ran into epoch 10 the same way (k up to 100 is accepted off the
// network, so both pairs were reachable; TestLiveCacheKeyEpochBoundary
// reaches them through an engine).
func TestCacheKeyIsInjective(t *testing.T) {
	for _, sep := range []string{"\x1f", "\x00", "\x01"} {
		glued := []textproc.Token{"marc" + sep + "snir"}
		split := []textproc.Token{"marc", "snir"}

		e := NewEngine(smallIndex())
		if got := e.SearchWithSeed(nil, glued); len(got) != 0 {
			t.Fatalf("sep %q: unseen token matched %d pages", sep, len(got))
		}
		assertSameResults(t, "frozen, after the glued token", e.SearchReference(split), e.SearchWithSeed(nil, split))

		le := NewLiveEngine(smallIndex(), Options{}, LiveOptions{}).View()
		if got := le.SearchWithSeed(nil, glued); len(got) != 0 {
			t.Fatalf("sep %q: live: unseen token matched %d pages", sep, len(got))
		}
		assertSameResults(t, "live, after the glued token", e.SearchReference(split), le.SearchWithSeed(nil, split))
	}
	wide, glued := epochBoundaryQueries()
	// Same bytes, different splits, different k and different epochs — the
	// frozen engine's epoch 0 included: all distinct keys.
	keys := map[string]string{}
	for name, key := range map[string][]byte{
		"[ab]":                  appendCacheKey(nil, 0, 5, []textproc.Token{"ab"}),
		"[a b]":                 appendCacheKey(nil, 0, 5, []textproc.Token{"a", "b"}),
		"[a b] k51":             appendCacheKey(nil, 0, 51, []textproc.Token{"a", "b"}),
		"[ ab]":                 appendCacheKey(nil, 0, 5, []textproc.Token{"", "ab"}),
		"[ab ]":                 appendCacheKey(nil, 0, 5, []textproc.Token{"ab", ""}),
		"epoch 1 [ab]":          appendCacheKey(nil, 1, 5, []textproc.Token{"ab"}),
		"epoch 5 k1 [ab]":       appendCacheKey(nil, 5, 1, []textproc.Token{"ab"}),
		"epoch 0 k0 [ab]":       appendCacheKey(nil, 0, 0, []textproc.Token{"ab"}),
		"epoch 0 k5 []":         appendCacheKey(nil, 0, 5, nil),
		"epoch 5 k0 []":         appendCacheKey(nil, 5, 0, nil),
		"epoch 0 k1 [\x02ab]":   appendCacheKey(nil, 0, 1, []textproc.Token{"\x02ab"}),
		"epoch 1 k2 [ab]":       appendCacheKey(nil, 1, 2, []textproc.Token{"ab"}),
		"epoch 1 k50 wide":      appendCacheKey(nil, 1, 50, wide),
		"epoch 12 k5 glued":     appendCacheKey(nil, 12, 5, glued),
		"epoch 1 k48 wide":      appendCacheKey(nil, 1, 48, wide),
		"epoch 10 k5 glued":     appendCacheKey(nil, 10, 5, glued),
		"epoch 0 k5 glued":      appendCacheKey(nil, 0, 5, glued),
		"epoch 300 k5 [a b]":    appendCacheKey(nil, 300, 5, []textproc.Token{"a", "b"}),
		"epoch 44 k2 [\x05a b]": appendCacheKey(nil, 44, 2, []textproc.Token{"\x05a", "b"}),
	} {
		if other, dup := keys[string(key)]; dup {
			t.Errorf("cache keys of %s and %s collide", name, other)
		}
		keys[string(key)] = name
	}
	// On a frozen engine the epoch is one constant zero byte ahead of the
	// key it built before it had an epoch, and no such key opens with that
	// byte (k ≥ 1 by the time a key is built): the two spell different
	// strings for every (k, tokens).
	for k := 1; k <= 100; k++ {
		bare := appendKeyTokens(binary.AppendUvarint(nil, uint64(k)), wide)
		if key := appendCacheKey(nil, 0, k, wide); !bytes.Equal(key, append([]byte{0}, bare...)) || bare[0] == 0 {
			t.Errorf("k %d: epoch-0 key %q is not a zero byte ahead of %q", k, key, bare)
		}
	}
}

// epochBoundaryQueries is the pair of token lists whose keys ran together
// under a decimal epoch: wide's first token has the length that is glued's
// k, and glued's one token is the rest of wide's encoding —
// uvarint(5)·"aaaaa"·uvarint(92)·tail read as k = 5 and then one 97-byte
// token ('a' is 97) — so the tails lined up too and epoch 1, k 50, wide was
// epoch 12, k 5, glued byte for byte.
func epochBoundaryQueries() (wide, glued []textproc.Token) {
	tail := textproc.Token(strings.Repeat("x", 92))
	return []textproc.Token{"aaaaa", tail}, []textproc.Token{"aaaa" + "\x5c" + tail}
}

// TestSeededCacheKeyIsInjective: a coordinator's front cache answers with
// the response of whichever request stored the key, echoed Seed and Query
// included, so two (k, seed, query) triples may share a key only when they
// are the same triple. The table holds the ways a looser encoding would
// let them: the same tokens with the seed/query boundary somewhere else, a
// token that contains the bytes the other split's encoding puts there
// (length byte included), an empty list on either side, and k.
func TestSeededCacheKeyIsInjective(t *testing.T) {
	type triple struct {
		k           int
		seed, query []textproc.Token
	}
	keys := map[string]triple{}
	for _, tr := range []triple{
		{5, []textproc.Token{"a", "b"}, []textproc.Token{"c"}},
		{5, []textproc.Token{"a"}, []textproc.Token{"b", "c"}},
		{5, nil, []textproc.Token{"a", "b", "c"}},
		{5, []textproc.Token{"a", "b", "c"}, nil},
		{5, []textproc.Token{"ab"}, []textproc.Token{"c"}},
		{5, []textproc.Token{"a"}, []textproc.Token{"bc"}},
		// Tokens holding the length bytes [a b c]'s encoding puts between them.
		{5, []textproc.Token{"a\x01b"}, []textproc.Token{"c"}},
		{5, []textproc.Token{"a\x01b\x01c"}, nil},
		{5, nil, []textproc.Token{"\x01a\x01b\x01c"}},
		{5, []textproc.Token{"a", "b"}, []textproc.Token{"\x01c"}},
		// An empty token is a token.
		{5, []textproc.Token{""}, []textproc.Token{"a", "b", "c"}},
		{5, []textproc.Token{"a", "b", "c"}, []textproc.Token{""}},
		// k alone; a two-byte uvarint k; a seed token opening with the byte
		// that is another triple's seed count.
		{1, []textproc.Token{"a", "b"}, []textproc.Token{"c"}},
		{51, []textproc.Token{"a", "b"}, []textproc.Token{"c"}},
		{300, []textproc.Token{"a", "b"}, []textproc.Token{"c"}},
		{5, []textproc.Token{"\x02a\x01b"}, []textproc.Token{"c"}},
	} {
		key := string(AppendSeededCacheKey(nil, tr.k, tr.seed, tr.query))
		if other, dup := keys[key]; dup {
			t.Errorf("front-cache keys of %+v and %+v collide", tr, other)
		}
		keys[key] = tr
	}
}
