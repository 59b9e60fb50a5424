package webapi

// Tests of the coordinator's two caches: complete results ahead of the
// scatter (copied out, never a partial, never an error) and page bodies as
// bytes, bounded.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// TestFrontCacheNeverAliases: the serving layer writes page bodies into the
// hit list Scatter hands it, so a cached list handed out by reference would
// leak one caller's bodies into the next caller's response. The same query,
// asked three ways in turn and then from eight goroutines at once, gets
// exactly the bodies each request asked for.
func TestFrontCacheNeverAliases(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	co := dialCluster(t, startClusterNodes(t, g, 3, 2, nil), 2, 0)
	srv := httptest.NewServer(NewCoordinatorServer(co).Handler())
	t.Cleanup(srv.Close)

	q := url.Values{"seed": g.Corpus.Entities[3].SeedTokens(), "q": {"research"}}
	base := srv.URL + apiRoot + "/search?" + q.Encode()
	_, first := rawGet(t, base, false)
	var plain SearchResponse
	if err := json.Unmarshal(first, &plain); err != nil || len(plain.Hits) != 5 {
		t.Fatalf("fixture search: %d hits, err %v; want 5", len(plain.Hits), err)
	}
	ids := make([]string, len(plain.Hits))
	for i, h := range plain.Hits {
		ids[i] = strconv.Itoa(int(h.PageID))
	}
	haveAll := base + "&with=pages&have=" + strings.Join(ids, ",")

	// check issues one request and fails (via t.Error: it also runs off
	// the test goroutine) unless exactly the hits it should carry bodies.
	check := func(rawURL string, wire, wantBodies bool) {
		req, _ := http.NewRequest(http.MethodGet, rawURL, nil)
		if wire {
			req.Header.Set("Accept", wireContentType)
		}
		hresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer hresp.Body.Close()
		b, err := io.ReadAll(hresp.Body)
		if err != nil {
			t.Error(err)
			return
		}
		if !wire && !wantBodies && strings.Contains(string(b), `"html"`) {
			t.Errorf("%s: a response that asked for no body has an html key", rawURL)
		}
		resp, err := decodeSearchResponse(b)
		if err != nil || len(resp.Hits) != len(plain.Hits) {
			t.Errorf("%s (wire=%v): %d hits, err %v", rawURL, wire, len(resp.Hits), err)
			return
		}
		for i, h := range resp.Hits {
			if (h.HTML != "") != wantBodies {
				t.Errorf("%s (wire=%v) hit %d: body attached=%v, want %v", rawURL, wire, i, h.HTML != "", wantBodies)
			}
			h.HTML = ""
			if h != plain.Hits[i] {
				t.Errorf("%s (wire=%v) hit %d: %+v, want %+v", rawURL, wire, i, h, plain.Hits[i])
			}
		}
	}
	round := func() {
		for _, wire := range []bool{false, true} {
			check(base+"&with=pages", wire, true)
			check(haveAll, wire, false)
			check(base, wire, false)
		}
	}
	round()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			round()
		}()
	}
	wg.Wait()
	if m := co.Metrics(); m.Scatters != 1 || m.FrontCache.Hits == 0 {
		t.Errorf("metrics %+v: want one scatter and the rest front-cache hits", m)
	}
}

// TestFrontCacheStoresOnlyCompleteResults: a flagged partial and an
// all-partitions-down error are answers to the cluster's state, not to the
// query, and must not outlive it; a complete result must, and costs no
// fan-out when asked again — even with the partition's owners down.
func TestFrontCacheStoresOnlyCompleteResults(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	kills := make([]*killSwitch, 3)
	urls := startClusterNodes(t, g, 3, 2, func(i int, h http.Handler) http.Handler {
		kills[i] = &killSwitch{next: h}
		return kills[i]
	})
	co := dialCluster(t, urls, 2, 0)
	owners := search.NewRing(3, 2, 0).AppendOwners(nil, 0)
	setDown := func(nodes []int, down bool) {
		for _, n := range nodes {
			kills[n].down.Store(down)
		}
	}
	ctx := context.Background()
	seed := g.Corpus.Entities[0].SeedTokens()
	query := []textproc.Token{"research"}
	scatters := func() int64 { return co.Metrics().Scatters }

	setDown(owners, true)
	resp, err := co.search(ctx, seed, query, 0)
	if err != nil || !resp.Partial {
		t.Fatalf("partition 0 without owners: partial=%v err=%v, want a flagged partial", resp.Partial, err)
	}
	setDown(owners, false)
	before := scatters()
	complete, err := co.search(ctx, seed, query, 0)
	if err != nil || complete.Partial || len(complete.Hits) == 0 {
		t.Fatalf("owners restored: %+v, %v; want a complete result", complete, err)
	}
	if scatters() != before+1 {
		t.Fatalf("owners restored: scatters %d → %d; the partial was served from the cache", before, scatters())
	}

	setDown(owners, true)
	before = scatters()
	again, err := co.search(ctx, seed, query, 0)
	if err != nil || !reflect.DeepEqual(again, complete) {
		t.Errorf("cached complete result with owners down: %+v, %v; want %+v", again, err, complete)
	}
	if scatters() != before {
		t.Errorf("a cached complete result still fanned out (scatters %d → %d)", before, scatters())
	}
	if fresh, err := co.search(ctx, seed, []textproc.Token{"teaching"}, 0); err != nil || !fresh.Partial {
		t.Errorf("never-seen query with owners down: partial=%v err=%v, want a flagged partial", fresh.Partial, err)
	}

	// A total outage errors and leaves nothing behind either.
	setDown([]int{0, 1, 2}, true)
	outage := []textproc.Token{"award"}
	if _, err := co.search(ctx, seed, outage, 0); err == nil {
		t.Fatal("scatter with every node down reported success")
	}
	setDown([]int{0, 1, 2}, false)
	if resp, err := co.search(ctx, seed, outage, 0); err != nil || resp.Partial {
		t.Errorf("after the outage: partial=%v err=%v, want a complete result", resp.Partial, err)
	}
	// So does a scatter its caller abandoned.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	abandoned := []textproc.Token{"students"}
	if _, err := co.search(dead, seed, abandoned, 0); err == nil {
		t.Fatal("scatter under a canceled ctx reported success")
	}
	if resp, err := co.search(ctx, seed, abandoned, 0); err != nil || resp.Partial {
		t.Errorf("after the canceled scatter: partial=%v err=%v, want a complete result", resp.Partial, err)
	}
}

// TestFrontCacheMatchesScatter: over 200 generated (k, seed, query)
// triples — phrase tokens, empty seeds, empty queries, repeated draws — a
// coordinator with the front cache answers, first time and every repeat,
// exactly what one without it answers: the echoed Query and Seed, the
// hits, the scores bit for bit.
func TestFrontCacheMatchesScatter(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	urls := startClusterNodes(t, g, 3, 2, nil)
	cached := dialClusterCache(t, urls, 2, 0, 64) // small: evictions and re-fills run too
	uncached := dialClusterCache(t, urls, 2, 0, -1)

	rng := rand.New(rand.NewPCG(23, 0))
	pages := g.Corpus.Pages
	draw := func(max int) []textproc.Token {
		toks := pages[rng.IntN(len(pages))].Tokens()
		out := make([]textproc.Token, 0, max)
		for n := rng.IntN(max + 1); len(out) < n; {
			out = append(out, toks[rng.IntN(len(toks))])
		}
		return out
	}
	type triple struct {
		k           int
		seed, query []textproc.Token
	}
	var triples []triple
	for len(triples) < 200 {
		tr := triple{k: rng.IntN(8)}
		if rng.IntN(4) > 0 {
			tr.seed = g.Corpus.Entities[rng.IntN(g.Corpus.NumEntities())].SeedTokens()
		}
		tr.query = draw(3)
		if len(tr.seed)+len(tr.query) == 0 {
			continue
		}
		triples = append(triples, tr)
		if rng.IntN(3) == 0 { // the same tokens, split one token later
			all := append(append([]textproc.Token(nil), tr.seed...), tr.query...)
			cut := min(len(tr.seed)+1, len(all))
			triples = append(triples, triple{k: tr.k, seed: all[:cut], query: all[cut:]})
		}
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for i, tr := range triples {
			want, err := uncached.search(ctx, tr.seed, tr.query, tr.k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cached.search(ctx, tr.seed, tr.query, tr.k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Query != want.Query || got.Seed != want.Seed || got.Partial || len(got.Hits) != len(want.Hits) {
				t.Fatalf("round %d triple %d %+v: cached %+v, uncached %+v", round, i, tr, got, want)
			}
			for j := range want.Hits {
				if got.Hits[j] != want.Hits[j] || math.Float64bits(got.Hits[j].Score) != math.Float64bits(want.Hits[j].Score) {
					t.Fatalf("round %d triple %d hit %d: cached %+v, uncached %+v", round, i, j, got.Hits[j], want.Hits[j])
				}
			}
		}
	}
	m := cached.Metrics()
	if m.FrontCache.Hits == 0 || m.FrontCache.Entries > 64 || m.Scatters != int64(m.FrontCache.Misses) {
		t.Errorf("cached coordinator metrics %+v: want hits, ≤ 64 entries, one scatter per miss", m)
	}
	if um := uncached.Metrics(); um.FrontCache != (CacheMetrics{}) || um.Scatters != int64(2*len(triples)) {
		t.Errorf("uncached coordinator metrics %+v: want no front cache and one scatter per search", um)
	}
}

// pageTamper stands between a node and the coordinator and spoils the first
// two answers to every batch of page bodies (/api/v1/cluster/pages): the
// first carries another page's ID in its first body's meta (a misrouted
// body — well-formed, wrong page), the second dies mid-transfer
// (FaultInjector's truncation). The third is the node's own.
type pageTamper struct {
	next     http.Handler
	truncate FaultInjector

	mu   sync.Mutex
	seen map[string]int

	swapped, truncated atomic.Int64
}

func newPageTamper(next http.Handler) *pageTamper {
	return &pageTamper{next: next, truncate: FaultInjector{TruncateRate: 1, Next: next}, seen: make(map[string]int)}
}

func (p *pageTamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != apiRoot+"/cluster/pages" {
		p.next.ServeHTTP(w, r)
		return
	}
	p.mu.Lock()
	n := p.seen[r.URL.RawQuery]
	p.seen[r.URL.RawQuery]++
	p.mu.Unlock()
	switch n {
	case 0:
		raw := r.Clone(r.Context())
		raw.Header.Del("Accept")
		rec := httptest.NewRecorder()
		p.next.ServeHTTP(rec, raw)
		var pages []PageBody
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pages) != nil {
			p.next.ServeHTTP(w, r) // a 404 needs no help being wrong
			return
		}
		p.swapped.Add(1)
		pages[0].HTML = strings.Replace(pages[0].HTML, `<meta name="l2q-page-id" content="`, `<meta name="l2q-page-id" content="9`, 1)
		if strings.Contains(r.Header.Get("Accept"), wireContentType) {
			w.Header().Set("Content-Type", wireContentType)
			_, _ = w.Write(marshalFrame(wirePages, func(e *store.Enc) { encodePagesWire(e, pages) }))
			return
		}
		_ = json.NewEncoder(w).Encode(pages)
	case 1:
		p.truncated.Add(1)
		p.truncate.ServeHTTP(w, r)
	default:
		p.next.ServeHTTP(w, r)
	}
}

// TestCoordinatorBodyCacheBounded: a coordinator passes page bodies on as
// the bytes their owner served and keeps a bounded number of them. Every
// page of the corpus is downloaded through it, twice, in both codecs, with
// every node spoiling its first two answers to each batch (here one page
// each, what /page/{id} on a coordinator asks its owner): each body equals the
// owner's own /page/{id}, a spoiled one is retried and neither served nor
// kept, the cache never holds more than its bound, and the node clients
// hold no page at all.
func TestCoordinatorBodyCacheBounded(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	tampers := make([]*pageTamper, 3)
	urls := startClusterNodes(t, g, 3, 2, func(i int, h http.Handler) http.Handler {
		tampers[i] = newPageTamper(h)
		return tampers[i]
	})
	co := dialCluster(t, urls, 2, 0)
	const bound = 32
	co.bodies = newSizedCache(bound, func(body string) int { return len(body) }) // maxBodies would hold this whole corpus
	srv := httptest.NewServer(NewCoordinatorServer(co).Handler())
	t.Cleanup(srv.Close)

	want := make(map[corpus.PageID]string, g.Corpus.NumPages())
	minLen, maxLen := math.MaxInt, 0
	for _, p := range g.Corpus.Pages {
		body := html.RenderPage(p) // what its owners serve (TestNodeServesOnlyOwnedPages)
		want[p.ID] = body
		minLen, maxLen = min(minLen, len(body)), max(maxLen, len(body))
	}
	for pass := 0; pass < 2; pass++ {
		for i, p := range g.Corpus.Pages {
			wire := (i+pass)%2 == 0
			status, b := rawGet(t, srv.URL+html.PageHref(p.ID), wire)
			if status != http.StatusOK {
				t.Fatalf("page %d through the coordinator = %d %s", p.ID, status, b)
			}
			if wire {
				if b, err = openFrame(b, wirePage); err != nil {
					t.Fatal(err)
				}
			}
			if string(b) != want[p.ID] {
				t.Fatalf("page %d (wire=%v) through the coordinator differs from its owner's bytes", p.ID, wire)
			}
			m := co.Metrics().BodyCache
			if m.Entries > bound || m.Bytes < int64(m.Entries*minLen) || m.Bytes > int64(m.Entries*maxLen) {
				t.Fatalf("after page %d: body cache %+v, bound %d entries of %d–%d bytes", p.ID, m, bound, minLen, maxLen)
			}
		}
	}
	var swapped, truncated int64
	for _, tp := range tampers {
		swapped += tp.swapped.Load()
		truncated += tp.truncated.Load()
	}
	if swapped == 0 || truncated == 0 {
		t.Fatalf("%d swapped and %d truncated bodies; the test proved nothing", swapped, truncated)
	}
	m := co.Metrics()
	if m.BodyCache.Misses <= uint64(g.Corpus.NumPages()) {
		t.Errorf("body cache %+v: the second pass re-fetched nothing, so the bound evicted nothing", m.BodyCache)
	}
	for i, pn := range m.PerNode {
		if pn.Client.CachedPages != 0 {
			t.Errorf("node %d client holds %d pages; a coordinator keeps bodies in its own cache", i, pn.Client.CachedPages)
		}
	}
	// What the cache holds is what the owners serve, under the right IDs.
	held := 0
	for id, body := range want {
		var kb [binary.MaxVarintLen64]byte
		if got, ok := co.bodies.get(binary.AppendUvarint(kb[:0], uint64(id))); ok {
			held++
			if got != body {
				t.Errorf("body cached under page %d is not that page's", id)
			}
		}
	}
	if held != bound || m.BodyCache.Entries != bound {
		t.Errorf("body cache holds %d of the corpus's pages (%+v), want it full at %d", held, m.BodyCache, bound)
	}
}

// BenchmarkCoordinatorFrontHitAllocs measures a front-cache hit: the copied
// hit list and nothing else — no key string, no scatter scratch, no echoed
// Query/Seed rebuilt. Gated at 1 alloc/op by scripts/alloc_gate.sh.
func BenchmarkCoordinatorFrontHitAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	co := dialCluster(b, startClusterNodes(b, g, 3, 2, nil), 2, 0)
	ctx := context.Background()
	seed, query := g.Corpus.Entities[3].SeedTokens(), []textproc.Token{"research", "data mining"}
	resp, err := co.search(ctx, seed, query, 0) // the miss that fills the cache
	if err != nil || len(resp.Hits) != 5 {
		b.Fatalf("%d hits, err %v", len(resp.Hits), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, err = co.search(ctx, seed, query, 0); err != nil {
			b.Fatal(err)
		}
	}
	if co.Metrics().Scatters != 1 {
		b.Fatal("the measured calls were not cache hits")
	}
}
