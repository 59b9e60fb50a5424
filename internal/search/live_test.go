package search

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// liveTestCorpus generates a small synthetic corpus and a mixed query set
// (entity seed queries, seed ∥ aspect-ish continuations, single terms) —
// the shapes harvest sessions actually fire.
func liveTestCorpus(t testing.TB, domain corpus.Domain) ([]*corpus.Page, [][]textproc.Token) {
	t.Helper()
	cfg := synth.TestConfig(domain)
	g, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]textproc.Token
	for i, e := range g.Corpus.Entities {
		seed := g.Tokenizer.Tokenize(e.SeedQuery)
		qs = append(qs, seed)
		if i < len(g.Corpus.Pages) {
			if toks := g.Corpus.Pages[i].Tokens(); len(toks) > 2 {
				qs = append(qs, append(append([]textproc.Token{}, seed...), toks[1], toks[2]))
				qs = append(qs, []textproc.Token{toks[0]})
			}
		}
	}
	return g.Corpus.Pages, qs
}

// requireParity asserts the live engine's current view ranks
// byte-identically to a frozen engine rebuilt from the same final page set:
// same pages in the same order with bit-equal scores, plus equal collection
// statistics and μ.
func requireParity(t *testing.T, ctx string, live *LiveEngine, pages []*corpus.Page, qs [][]textproc.Token) {
	t.Helper()
	le := live.View()
	frozen := NewEngineOpts(BuildIndex(pages), Options{CacheSize: -1})
	if got, want := le.NumDocs(), frozen.Index().NumDocs(); got != want {
		t.Fatalf("%s: NumDocs = %d, frozen %d", ctx, got, want)
	}
	if got, want := le.NumTerms(), frozen.Index().NumTerms(); got != want {
		t.Fatalf("%s: NumTerms = %d, frozen %d", ctx, got, want)
	}
	if got, want := le.TotalTokens(), frozen.Index().TotalTokens(); got != want {
		t.Fatalf("%s: TotalTokens = %d, frozen %d", ctx, got, want)
	}
	if got, want := le.Mu(), frozen.Mu(); got != want {
		t.Fatalf("%s: Mu = %v, frozen %v", ctx, got, want)
	}
	var lres, fres []Result
	for qi, q := range qs {
		lres = le.SearchWithSeedAppend(lres[:0], nil, q)
		fres = frozen.SearchWithSeedAppend(fres[:0], nil, q)
		if len(lres) != len(fres) {
			t.Fatalf("%s: query %d: live %d hits, frozen %d", ctx, qi, len(lres), len(fres))
		}
		for i := range fres {
			if lres[i].Page != fres[i].Page || lres[i].Score != fres[i].Score {
				t.Fatalf("%s: query %d rank %d: live (page %d, %v), frozen (page %d, %v)",
					ctx, qi, i, lres[i].Page.ID, lres[i].Score, fres[i].Page.ID, fres[i].Score)
			}
		}
		if len(q) > 0 {
			if got, want := le.CollectionFreq(q[0]), frozen.Index().CollectionFreq(q[0]); got != want {
				t.Fatalf("%s: CollectionFreq(%q) = %d, frozen %d", ctx, q[0], got, want)
			}
		}
	}
}

// TestLiveParityGrownVsRebuilt is the tentpole contract: a live engine
// grown from empty — across memtable sizes, ingest batch sizes, and
// compaction settings, on both domains — ranks byte-identically to a
// frozen engine rebuilt from the final page set.
func TestLiveParityGrownVsRebuilt(t *testing.T) {
	for _, domain := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		pages, qs := liveTestCorpus(t, domain)
		for _, tc := range []struct {
			mem, fan, batch int
		}{
			{1, 2, 1},    // every doc its own segment, aggressive merging
			{7, -1, 3},   // no background compaction at all
			{16, 3, 5},   // mid-size generations
			{64, 4, 17},  // batches split across seal boundaries
			{1000, 4, 1}, // everything stays in the memtable
		} {
			le := NewLiveEngine(nil, Options{}, LiveOptions{
				MemtableDocs: tc.mem, CompactFanIn: tc.fan,
			})
			for i := 0; i < len(pages); i += tc.batch {
				end := i + tc.batch
				if end > len(pages) {
					end = len(pages)
				}
				le.Add(pages[i:end]...)
			}
			le.Quiesce()
			ctx := fmt.Sprintf("%s mem=%d fan=%d batch=%d", domain, tc.mem, tc.fan, tc.batch)
			requireParity(t, ctx, le, pages, qs)
			if got, want := len(le.Pages()), len(pages); got != want {
				t.Fatalf("%s: Pages() = %d, want %d", ctx, got, want)
			}
		}
	}
}

// requireOwnReference asserts a view's fast path equals the view's own
// SearchReference — every segment walked under its global ordinal, no
// rebuilt twin involved.
func requireOwnReference(t *testing.T, ctx string, v *Engine, qs [][]textproc.Token) {
	t.Helper()
	for qi, q := range qs {
		assertSameResults(t, fmt.Sprintf("%s: query %d %q vs own reference", ctx, qi, q), v.SearchReference(q), v.SearchWithSeed(nil, q))
	}
}

// TestLiveParityRandomSchedule drives a seeded random mix of single adds,
// batch adds, explicit seals, and explicit compactions, and after every
// step holds the grown view to a frozen rebuild of the prefix and to its
// own reference. A failure names the PRNG seed that reproduces it.
func TestLiveParityRandomSchedule(t *testing.T) {
	pages, qs := liveTestCorpus(t, synth.DomainResearchers)
	// Every step is checked, each against a rebuild of its prefix: a third
	// of the corpus keeps that affordable under the race detector and
	// still crosses a dozen seals and several compaction tiers per seed.
	pages, qs = pages[:len(pages)/3], qs[:len(qs)/2]
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		le := NewLiveEngine(nil, Options{}, LiveOptions{
			MemtableDocs: 5, CompactFanIn: -2,
		})
		check := func(step string, next int) {
			t.Helper()
			ctx := fmt.Sprintf("PRNG seed %d, after %s at prefix %d", seed, step, next)
			requireParity(t, ctx, le, pages[:next], qs)
			requireOwnReference(t, ctx, le.View(), qs)
		}
		for next := 0; next < len(pages); {
			n := min(1+rng.Intn(4), len(pages)-next)
			le.Add(pages[next : next+n]...)
			next += n
			check("add", next)
			switch rng.Intn(5) {
			case 0:
				le.Seal()
				check("seal", next)
			case 1:
				le.Compact()
				check("compact", next)
			}
		}
	}
}

// TestLiveParityBootstrap covers the frozen-boot path (bootstrap pages as
// one sealed segment, then grow).
func TestLiveParityBootstrap(t *testing.T) {
	pages, qs := liveTestCorpus(t, synth.DomainCars)
	half := len(pages) / 2

	boot := BuildIndex(pages[:half])
	le := NewLiveEngine(boot, Options{}, LiveOptions{MemtableDocs: 9, CompactFanIn: 2})
	if le.View().Index() != boot {
		t.Fatal("the bootstrap segment is not the index the engine was handed")
	}
	requireParity(t, "bootstrap-only", le, pages[:half], qs)
	le.Add(pages[half:]...)
	le.Quiesce()
	requireParity(t, "bootstrap+grown", le, pages, qs)
}

// TestLiveTopKOverride checks the per-request k override against frozen
// engines configured with the same k.
func TestLiveTopKOverride(t *testing.T) {
	pages, qs := liveTestCorpus(t, synth.DomainResearchers)
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 11})
	le.Add(pages...)
	le.Quiesce()
	frozen := NewEngineOpts(BuildIndex(pages), Options{CacheSize: -1})
	for _, k := range []int{1, 3, 10} {
		fk := frozen.WithTopK(k)
		var lres, fres []Result
		for _, q := range qs[:10] {
			lres = le.View().SearchWithSeedTopKAppend(lres[:0], k, nil, q)
			fres = fk.SearchWithSeedAppend(fres[:0], nil, q)
			if len(lres) != len(fres) {
				t.Fatalf("k=%d: live %d hits, frozen %d", k, len(lres), len(fres))
			}
			for i := range fres {
				if lres[i].Page != fres[i].Page || lres[i].Score != fres[i].Score {
					t.Fatalf("k=%d rank %d: live page %d, frozen page %d", k, i, lres[i].Page.ID, fres[i].Page.ID)
				}
			}
		}
	}
}

// TestLiveCacheEpochInvalidation: a publish must invalidate prior cached
// results via the epoch key — post-ingest queries see the new corpus —
// while repeated queries within one epoch hit the cache.
func TestLiveCacheEpochInvalidation(t *testing.T) {
	pages, qs := liveTestCorpus(t, synth.DomainResearchers)
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 50})
	le.Add(pages[:20]...)
	q := qs[0]

	le.View().SearchWithSeed(nil, q)
	_, m0 := le.View().CacheStats()
	le.View().SearchWithSeed(nil, q)
	h1, m1 := le.View().CacheStats()
	if m1 != m0 || h1 == 0 {
		t.Fatalf("same-epoch repeat did not hit cache: hits=%d misses %d→%d", h1, m0, m1)
	}
	epoch := le.View().Epoch()

	le.Add(pages[20:40]...)
	if le.View().Epoch() == epoch {
		t.Fatal("Add did not bump epoch")
	}
	res := le.View().SearchWithSeed(nil, q)
	_, m2 := le.View().CacheStats()
	if m2 != m1+1 {
		t.Fatalf("post-ingest query should miss the stale epoch: misses %d→%d", m1, m2)
	}
	frozen := NewEngineOpts(BuildIndex(pages[:40]), Options{CacheSize: -1})
	fres := frozen.SearchWithSeed(nil, q)
	if len(res) != len(fres) {
		t.Fatalf("post-ingest results stale: live %d hits, frozen %d", len(res), len(fres))
	}
	for i := range fres {
		if res[i].Page != fres[i].Page || res[i].Score != fres[i].Score {
			t.Fatalf("post-ingest rank %d stale: live page %d, frozen page %d", i, res[i].Page.ID, fres[i].Page.ID)
		}
	}
	if inv := le.Metrics().EpochInvalidations; inv == 0 {
		t.Fatal("EpochInvalidations gauge not counting")
	}
}

// TestLiveMetricsGauges sanity-checks the generational gauges across the
// segment lifecycle.
func TestLiveMetricsGauges(t *testing.T) {
	pages, _ := liveTestCorpus(t, synth.DomainResearchers)
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 4, CompactFanIn: -2})
	le.Add(pages[:10]...)
	m := le.Metrics()
	if m.NumDocs != 10 || m.MemtableDocs != 2 || m.Segments != 3 {
		t.Fatalf("after 10 adds at memtable=4: %+v", m)
	}
	le.Compact()
	m = le.Metrics()
	if m.Compactions == 0 || m.DocsCompacted != 8 || m.Segments != 2 {
		t.Fatalf("after compact: %+v", m)
	}
	if m.Epoch == 0 || m.EpochInvalidations == 0 {
		t.Fatalf("epoch gauges flat: %+v", m)
	}
}

// liveSoakDuration mirrors the scheduler soak's L2Q_SOAK contract: a
// short default locally, 30 s in CI.
func liveSoakDuration(t *testing.T) time.Duration {
	if s := os.Getenv("L2Q_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad L2Q_SOAK %q: %v", s, err)
		}
		return d
	}
	return 1500 * time.Millisecond
}

// TestLiveEngineSoak is the ingest+search+compact churn loop under the
// race detector: concurrent batched ingestion, seeded searches with
// reused buffers, explicit seal/compact churn, and metrics polling
// against one engine — then differential parity on the final corpus.
func TestLiveEngineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	deadline := time.Now().Add(liveSoakDuration(t))
	pages, qs := liveTestCorpus(t, synth.DomainResearchers)
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 8, CompactFanIn: 2})

	var mu sync.Mutex // guards next
	next := 0
	claim := func(n int) []*corpus.Page {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(pages) {
			return nil
		}
		if next+n > len(pages) {
			n = len(pages) - next
		}
		batch := pages[next : next+n]
		next += n
		return batch
	}

	// Ingesters run until every page is claimed (or the deadline); each
	// batch asks the churn goroutine for one seal or compaction, coalesced.
	added := make(chan struct{}, 1)
	ingestDone := make(chan struct{})
	var ingesters sync.WaitGroup
	for w := 0; w < 2; w++ {
		ingesters.Add(1)
		go func(w int) {
			defer ingesters.Done()
			for time.Now().Before(deadline) {
				batch := claim(1 + w)
				if batch == nil {
					return
				}
				le.Add(batch...)
				select {
				case added <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	go func() { ingesters.Wait(); close(ingestDone) }()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // searchers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []Result
			for i := 0; time.Now().Before(deadline); i++ {
				q := qs[(i*7+w)%len(qs)]
				dst = le.View().SearchWithSeedAppend(dst[:0], nil, q)
				for _, r := range dst {
					if r.Page == nil {
						t.Error("nil page in live result")
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // churn: explicit seals and compactions, one per ingest, race the background compactor
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-added:
			case <-ingestDone:
				return
			}
			if i%2 == 0 {
				le.Seal()
			} else {
				le.Compact()
			}
			le.Metrics()
		}
	}()
	wg.Wait()

	// Drain whatever the deadline cut off, then hold the parity bar.
	for {
		batch := claim(64)
		if batch == nil {
			break
		}
		le.Add(batch...)
	}
	le.Quiesce()
	// The two ingesters claim batches in page order but race from claim
	// to Add, so the ingest order — the order ties break on, and the one
	// the parity contract rebuilds from — is the engine's, not pages'.
	ingested := le.Pages()
	if len(ingested) != len(pages) {
		t.Fatalf("post-soak: engine holds %d pages, ingested %d", len(ingested), len(pages))
	}
	requireParity(t, "post-soak", le, ingested, qs)
}

// TestLiveCacheKeyEpochBoundary reaches, through a live engine, the key
// pairs TestCacheKeyIsInjective holds apart: one Add is one epoch, and
// epoch 12 (10) must not answer glued at k 5 with the list cached for wide
// at epoch 1, k 50 (48).
func TestLiveCacheKeyEpochBoundary(t *testing.T) {
	wide, glued := epochBoundaryQueries()
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 1000, CompactFanIn: -1})
	add := func(id int) { le.Add(page(corpus.PageID(id), 0, "aaaaa", "filler", "aaaaa")) }
	add(0)
	if e := le.View().Epoch(); e != 1 {
		t.Fatalf("epoch %d after one Add, want 1", e)
	}
	for _, k := range []int{50, 48} {
		if got := le.View().SearchWithSeedTopKAppend(nil, k, nil, wide); len(got) != 1 {
			t.Fatalf("epoch 1, k %d: %q matched %d pages, want the one holding aaaaa", k, wide, len(got))
		}
	}
	for id := 1; le.View().Epoch() < 12; id++ {
		add(id)
		if v := le.View(); v.Epoch() == 10 || v.Epoch() == 12 {
			if got := v.SearchWithSeedTopKAppend(nil, 5, nil, glued); len(got) != 0 {
				t.Fatalf("epoch %d: the unseen token %q was answered with %d pages cached at epoch 1", v.Epoch(), glued, len(got))
			}
		}
	}
	if _, misses := le.View().CacheStats(); misses != 4 {
		t.Fatalf("%d cache misses, want 4: every search here has a key of its own", misses)
	}
}

// TestViewParityAcrossShapes: the same pages as a frozen engine, as a live
// engine's bootstrap view and as a view grown over several segments are
// one ranking — page identities, order and scores — at every k, and each of
// the three equals its own SearchReference.
func TestViewParityAcrossShapes(t *testing.T) {
	pages, qs := liveTestCorpus(t, synth.DomainResearchers)
	idx := BuildIndex(pages)
	grower := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 60, CompactFanIn: -1})
	grower.Add(pages...)
	grown := grower.View()
	if n := len(grown.segs); n < 3 {
		t.Fatalf("grown view has %d segments, want at least 3", n)
	}
	shapes := []struct {
		name string
		v    *Engine
	}{
		{"frozen", NewEngineOpts(idx, Options{})},
		{"booted", NewLiveEngine(idx, Options{}, LiveOptions{}).View()},
		{"grown", grown},
	}
	for _, k := range []int{1, 5, 50} {
		for _, sh := range shapes {
			requireOwnReference(t, fmt.Sprintf("%s k=%d", sh.name, k), sh.v.WithTopK(k), qs)
		}
		for qi, q := range qs {
			want := shapes[0].v.SearchWithSeedTopKAppend(nil, k, nil, q)
			for _, sh := range shapes[1:] {
				got := sh.v.SearchWithSeedTopKAppend(nil, k, nil, q)
				if !slices.Equal(got, want) {
					t.Fatalf("k=%d query %d %q: %s answers %v, frozen %v", k, qi, q, sh.name, got, want)
				}
			}
		}
	}
}

// TestViewReadsAreOneEpoch: statistics read through one View() belong to
// one epoch, so they satisfy the relation a view is built with — μ is
// AutoMu of its own totals — while a writer publishes. Read through the
// engine they were three loads and could straddle a publish. Run it under
// -race.
func TestViewReadsAreOneEpoch(t *testing.T) {
	pages, _ := liveTestCorpus(t, synth.DomainCars)
	le := NewLiveEngine(nil, Options{}, LiveOptions{MemtableDocs: 16, CompactFanIn: 2})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := le.View()
				if got, want := v.Mu(), AutoMu(v.NumDocs(), v.TotalTokens()); got != want {
					t.Errorf("epoch %d: μ = %v, but AutoMu(%d docs, %d tokens) = %v",
						v.Epoch(), got, v.NumDocs(), v.TotalTokens(), want)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, p := range pages {
		le.Add(p)
	}
	close(done)
	wg.Wait()
	le.Quiesce()
}
