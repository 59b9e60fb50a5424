package webapi

// Tests of the one-round-trip search: a search asked with=pages carries
// the pages of its hits, byte for byte what /page/{id} serves, on every
// backend and in both codecs.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
)

// servedShape is one server preset over the standard fixture corpus.
type servedShape struct {
	name string
	url  string
}

// startEveryShape serves g read-only ("frozen"), writable ("live") and
// through a 3-node coordinator; wrapNodes, when non-nil, interposes on the
// coordinator's nodes.
func startEveryShape(t *testing.T, g *synth.Generated, wrapNodes func(int, http.Handler) http.Handler) []servedShape {
	t.Helper()
	serve := func(s *Server) string {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	live := search.NewLiveEngine(search.BuildIndex(g.Corpus.Pages), search.Options{}, search.LiveOptions{MemtableDocs: 16})
	co := dialCluster(t, startClusterNodes(t, g, 3, 2, wrapNodes), 2, 0)
	return []servedShape{
		{"frozen", serve(NewServer(g.Corpus, bootLive(g.Corpus), nil))},
		{"live", serve(NewServer(g.Corpus, live, g.Tokenizer))},
		{"coordinator", serve(NewCoordinatorServer(co))},
	}
}

// rawGet issues one GET, asking for the binary codec when wire is set.
func rawGet(t *testing.T, rawURL string, wire bool) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wire {
		req.Header.Set("Accept", wireContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestSearchWithPagesMatchesPageRoute: for frozen, live and coordinator
// servers × wire and JSON, every body a with=pages search attaches is the
// bytes /page/{id} serves, have skips exactly the IDs it names, and what
// Retrieve builds from the one response is what search + per-hit page
// downloads build.
func TestSearchWithPagesMatchesPageRoute(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed := g.Corpus.Entities[3].SeedTokens()
	query := []string{"research"}
	for _, shape := range startEveryShape(t, g, nil) {
		for _, codec := range []Codec{CodecAuto, CodecJSON} {
			t.Run(shape.name+"/"+codec.String(), func(t *testing.T) {
				wire := codec != CodecJSON
				searchURL := func(extra url.Values) string {
					extra["seed"], extra["q"] = seed, query
					return shape.url + apiRoot + "/search?" + extra.Encode()
				}
				fetch := func(extra url.Values) SearchResponse {
					t.Helper()
					status, b := rawGet(t, searchURL(extra), wire)
					if status != http.StatusOK {
						t.Fatalf("search = %d: %s", status, b)
					}
					if wire != isWireFrame(b) {
						t.Fatalf("asked wire=%v, response framed=%v", wire, isWireFrame(b))
					}
					resp, err := decodeSearchResponse(b)
					if err != nil {
						t.Fatal(err)
					}
					return resp
				}
				pageBytes := func(id corpus.PageID) string {
					t.Helper()
					status, b := rawGet(t, shape.url+html.PageHref(id), false)
					if status != http.StatusOK {
						t.Fatalf("page %d = %d", id, status)
					}
					return string(b)
				}

				plain := fetch(url.Values{})
				if len(plain.Hits) < 3 {
					t.Fatalf("only %d hits; the test needs a few", len(plain.Hits))
				}
				for _, h := range plain.Hits {
					if h.HTML != "" {
						t.Fatalf("search without with=pages attached page %d", h.PageID)
					}
				}

				full := fetch(url.Values{"with": {"pages"}})
				if len(full.Hits) != len(plain.Hits) {
					t.Fatalf("with=pages changed the hit count: %d vs %d", len(full.Hits), len(plain.Hits))
				}
				for i, h := range full.Hits {
					if h.HTML != pageBytes(h.PageID) {
						t.Errorf("hit %d: attached body differs from /page/%d", i, h.PageID)
					}
					h.HTML = ""
					if h != plain.Hits[i] {
						t.Errorf("hit %d: with=pages changed the hit: %+v vs %+v", i, h, plain.Hits[i])
					}
				}

				// have: the named hits come without a body, the others
				// with; an ID the server does not hold is ignored.
				skip := []corpus.PageID{plain.Hits[0].PageID, plain.Hits[2].PageID}
				have := strconv.Itoa(int(skip[0])) + ",99999999," + strconv.Itoa(int(skip[1]))
				part := fetch(url.Values{"with": {"pages"}, "have": {have}})
				for i, h := range part.Hits {
					skipped := h.PageID == skip[0] || h.PageID == skip[1]
					if skipped != (h.HTML == "") {
						t.Errorf("hit %d (page %d): named in have=%v, body attached=%v", i, h.PageID, skipped, h.HTML != "")
					}
					if !skipped && h.HTML != full.Hits[i].HTML {
						t.Errorf("hit %d: body differs between have and no-have responses", i)
					}
				}

				// The client: one request, no page GETs, and the same
				// results as the two-phase resolution.
				twoPhase, err := DialContext(ctx, shape.url, g.Tokenizer, ClientOptions{Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := twoPhase.search(ctx, "search", "/search", url.Values{}, "", seed, query, true)
				if err != nil {
					t.Fatal(err)
				}
				var want []search.Result
				for _, h := range resp.Hits {
					p, err := twoPhase.PageCtx(ctx, h.PageID)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, search.Result{Page: p, Score: h.Score})
				}
				if m := twoPhase.Metrics(); int(m.PageFetches) != len(want) || m.PagesAttached != 0 {
					t.Fatalf("two-phase reference metrics %+v: want %d page GETs", m, len(want))
				}
				onePhase, err := DialContext(ctx, shape.url, g.Tokenizer, ClientOptions{Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				got, err := onePhase.Retrieve(ctx, nil, seed, query)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("one-round-trip results differ from search + page downloads")
				}
				if m := onePhase.Metrics(); m.Requests != 2 || m.PageFetches != 0 || int(m.PagesAttached) != len(want) {
					t.Errorf("one-round-trip metrics %+v: want 2 requests (dial + search), 0 page GETs, %d attached", m, len(want))
				}
				// Asked again, the client names every page it holds and
				// the server attaches none.
				again, err := onePhase.Retrieve(ctx, nil, seed, query)
				if err != nil || !reflect.DeepEqual(again, got) {
					t.Errorf("repeated retrieve differs (err %v)", err)
				}
				if m := onePhase.Metrics(); m.Requests != 3 || int(m.PagesAttached) != len(want) {
					t.Errorf("repeated retrieve metrics %+v: want 3 requests and no further attached page", m)
				}
			})
		}
	}
}

// TestHaveListTravelsLiteral: Retrieve sends its have list with literal
// commas — the raw query the server reads holds the client's list byte for
// byte, no %2C — and the server decodes exactly the IDs the client holds,
// up to the maxHave cap.
func TestHaveListTravelsLiteral(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	type served struct {
		raw  string
		have []corpus.PageID
	}
	var (
		mu  sync.Mutex
		got []served
	)
	h := NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == apiRoot+"/search" {
			_, have, ok := pagesParams(httptest.NewRecorder(), r.URL.Query())
			if !ok {
				t.Errorf("server refused %q", r.URL.RawQuery)
			}
			mu.Lock()
			got = append(got, served{r.URL.RawQuery, have})
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := context.Background()
	c, err := DialContext(ctx, ts.URL, g.Tokenizer, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	capped := false
	for _, e := range g.Corpus.Entities {
		if capped {
			break
		}
		want := c.haveList()
		if _, err := c.Retrieve(ctx, nil, e.SeedTokens(), []string{"research"}); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		s := got[len(got)-1]
		mu.Unlock()
		if strings.Contains(s.raw, "%2C") || strings.Contains(s.raw, "%2c") {
			t.Fatalf("have list escaped on the wire: %q", s.raw)
		}
		if want == "" {
			if strings.Contains(s.raw, "have=") || s.have != nil {
				t.Fatalf("empty have list sent: %q", s.raw)
			}
			continue
		}
		if !strings.Contains("&"+s.raw+"&", "&have="+want+"&") {
			t.Fatalf("raw query %q does not carry have=%s literally", s.raw, want)
		}
		ids := make([]string, len(s.have))
		for i, id := range s.have {
			ids[i] = strconv.Itoa(int(id))
		}
		if strings.Join(ids, ",") != want {
			t.Fatalf("server decoded have %v, client sent %s", s.have, want)
		}
		capped = len(s.have) == maxHave
	}
	if !capped {
		t.Fatalf("no search carried a full have list of %d IDs", maxHave)
	}
}

// TestSearchPagesParamValidation: with and have are outside input — every
// malformed form is a 400 through the one error envelope, on a frozen
// server and on a coordinator server alike, and a page the backend cannot
// produce fails the request with the backend's status instead of leaving
// a hit silently without its body.
func TestSearchPagesParamValidation(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	ids := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = strconv.Itoa(1_000_000 + i) // no page of the corpus
		}
		return strings.Join(parts, ",")
	}
	cases := []struct {
		name   string
		params string
		status int
	}{
		{"with pages", "with=pages", http.StatusOK},
		{"empty have", "with=pages&have=", http.StatusOK},
		{"have at the cap", "with=pages&have=" + ids(maxHave), http.StatusOK},
		{"have names unknown pages", "with=pages&have=99999998,99999999", http.StatusOK},
		{"unknown with", "with=tokens", http.StatusBadRequest},
		{"empty with", "with=", http.StatusBadRequest},
		{"with given twice", "with=pages&with=pages", http.StatusBadRequest},
		{"have without with", "have=1,2", http.StatusBadRequest},
		{"have given twice", "with=pages&have=1&have=2", http.StatusBadRequest},
		{"have not numeric", "with=pages&have=abc", http.StatusBadRequest},
		{"have with an empty field", "with=pages&have=1,,2", http.StatusBadRequest},
		{"have with a trailing comma", "with=pages&have=1,", http.StatusBadRequest},
		{"have only a comma", "with=pages&have=,", http.StatusBadRequest},
		{"have negative", "with=pages&have=-1", http.StatusBadRequest},
		{"have signed", "with=pages&have=%2B1", http.StatusBadRequest},
		{"have fractional", "with=pages&have=1.5", http.StatusBadRequest},
		{"have space separated", "with=pages&have=1+2", http.StatusBadRequest},
		{"have overflowing", "with=pages&have=99999999999999999999", http.StatusBadRequest},
		{"have past the cap", "with=pages&have=" + ids(maxHave+1), http.StatusBadRequest},
		{"have far past the cap", "with=pages&have=" + ids(50*maxHave), http.StatusBadRequest},
	}
	q := "&" + url.Values{"seed": g.Corpus.Entities[0].SeedTokens(), "q": {"research"}}.Encode()
	for _, shape := range startEveryShape(t, g, nil) {
		if shape.name == "live" {
			continue // shares localBackend with frozen
		}
		for _, tc := range cases {
			for _, wire := range []bool{false, true} {
				status, b := rawGet(t, shape.url+apiRoot+"/search?"+tc.params+q, wire)
				if status != tc.status {
					t.Errorf("%s: %s (wire=%v) = %d, want %d: %s", shape.name, tc.name, wire, status, tc.status, b)
					continue
				}
				if status == http.StatusOK {
					resp, err := decodeSearchResponse(b)
					if err != nil || len(resp.Hits) == 0 {
						t.Errorf("%s: %s: %d hits, err %v", shape.name, tc.name, len(resp.Hits), err)
					}
					for _, h := range resp.Hits {
						if h.HTML == "" {
							t.Errorf("%s: %s: hit %d lost its body to a have that never named it", shape.name, tc.name, h.PageID)
						}
					}
					continue
				}
				var env errorEnvelope
				if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != "bad_request" || env.Error.Retryable {
					t.Errorf("%s: %s: envelope %+v (decode %v), want bad_request, not retryable", shape.name, tc.name, env.Error, err)
				}
			}
		}
	}

	// A hit whose page the backend cannot produce. Frozen: the index
	// names a page the page table lost.
	live := bootLive(g.Corpus)
	lost := NewServer(g.Corpus, live, nil)
	hits := live.View().SearchWithSeed(g.Corpus.Entities[0].SeedTokens(), []string{"research"})
	delete(lost.backend.(*localBackend).byID, hits[1].Page.ID)
	frozen := httptest.NewServer(lost.Handler())
	defer frozen.Close()
	// Coordinator: every node refuses page requests, single and batched.
	noPages := startEveryShape(t, g, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/page/") || r.URL.Path == apiRoot+"/cluster/pages" {
				writeError(w, http.StatusNotFound, "no such page")
				return
			}
			h.ServeHTTP(w, r)
		})
	})[2]
	for _, tc := range []struct{ name, url string }{{"frozen", frozen.URL}, {noPages.name, noPages.url}} {
		for _, wire := range []bool{false, true} {
			status, b := rawGet(t, tc.url+apiRoot+"/search?with=pages"+q, wire)
			var env errorEnvelope
			if err := json.Unmarshal(b, &env); status != http.StatusNotFound || err != nil || env.Error.Code != "not_found" {
				t.Errorf("%s (wire=%v): missing page answered %d %s, want the backend's 404 envelope", tc.name, wire, status, b)
			}
			// Without with=pages the same search still answers.
			if status, _ := rawGet(t, tc.url+apiRoot+"/search?"+q[1:], wire); status != http.StatusOK {
				t.Errorf("%s: plain search = %d", tc.name, status)
			}
		}
	}
}

// TestConcurrentHitListsShareDownloads: hit lists attached at once that
// share a page download it once. The batch carrying the shared page is held
// at its node until every other list has joined that page's flight, so the
// lists overlap in time whatever the scheduler does; each list's own page
// travels in its own batch meanwhile.
func TestConcurrentHitListsShareDownloads(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	shared := g.Corpus.Pages[0].ID
	var (
		mu        sync.Mutex
		requested = map[corpus.PageID]int{}
	)
	release := make(chan struct{})
	urls := startClusterNodes(t, g, 3, 2, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == apiRoot+"/cluster/pages" {
				holdsShared := false
				for _, field := range strings.Split(r.URL.Query().Get("ids"), ",") {
					id, _ := strconv.Atoi(field)
					mu.Lock()
					requested[corpus.PageID(id)]++
					mu.Unlock()
					holdsShared = holdsShared || corpus.PageID(id) == shared
				}
				if holdsShared {
					<-release
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	co := dialCluster(t, urls, 2, 0)

	const lists = 6
	errs := make(chan error, lists)
	for i := 1; i <= lists; i++ {
		ids := []corpus.PageID{g.Corpus.Pages[i].ID, shared}
		want := []string{html.RenderPage(g.Corpus.Pages[i]), html.RenderPage(g.Corpus.Pages[0])}
		go func() {
			got := make([]string, len(ids))
			err := co.pages(context.Background(), ids, got)
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("list %v: bodies differ from the pages", ids)
			}
			errs <- err
		}()
	}
	awaitJoins(&co.flight, shared, lists-1)
	close(release)
	for i := 0; i < lists; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for id, n := range requested {
		if n != 1 {
			t.Errorf("page %d requested from the nodes %d times, want once", id, n)
		}
	}
	if len(requested) != lists+1 {
		t.Errorf("%d distinct pages requested, want %d", len(requested), lists+1)
	}
}

// TestServerMetricsCountAttachedPages: the search route's counters on
// /api/v1/metrics add up to the hits of the with=pages searches served.
func TestServerMetricsCountAttachedPages(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	seed := f.g.Corpus.Entities[1].SeedTokens()
	first, err := f.client.Retrieve(ctx, nil, seed, []string{"research"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Retrieve(ctx, nil, seed, []string{"research"}); err != nil {
		t.Fatal(err)
	}
	m, err := f.client.ServerMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := SearchRouteMetrics{PagesAttached: int64(len(first)), PagesSkippedHave: int64(len(first))}
	if len(first) == 0 || m.Search.PagesAttached != want.PagesAttached || m.Search.PagesSkippedHave != want.PagesSkippedHave {
		t.Errorf("search route metrics %+v, want %+v", m.Search, want)
	}
	if cm := f.client.Metrics(); cm.PagesAttached != want.PagesAttached || cm.PageFetches != 0 {
		t.Errorf("client metrics %+v, want %d attached and no page GETs", cm, want.PagesAttached)
	}
}

// TestServerMetricsReportEngineWork: the search block of /api/v1/metrics
// carries the cache traffic and the scoring passes' work of whatever
// answers searches in that process — the engine on a frozen or live
// server, the front cache and no pass at all on a coordinator, uncached
// partition engines on its nodes.
func TestServerMetricsReportEngineWork(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	shapes := startEveryShape(t, g, nil)
	var nodeURLs []string // read off the coordinator's own metrics
	metricsOf := func(url string) (ServerMetrics, string) {
		status, raw := rawGet(t, url+apiRoot+"/metrics", false)
		var m ServerMetrics
		if err := json.Unmarshal(raw, &m); status != http.StatusOK || err != nil {
			t.Fatalf("%s metrics: status %d, %v", url, status, err)
		}
		return m, string(raw)
	}
	q := "/search?seed=marc&seed=snir&q=research"
	for _, sh := range shapes {
		for i := 0; i < 2; i++ { // a miss, then a hit
			if status, b := rawGet(t, sh.url+apiRoot+q, false); status != http.StatusOK {
				t.Fatalf("%s: search = %d %s", sh.name, status, b)
			}
		}
		m, raw := metricsOf(sh.url)
		sm := m.Search
		if sm.CacheHits != 1 || sm.CacheMisses != 1 {
			t.Errorf("%s: cache %d hits / %d misses after a repeated search, want 1 / 1", sh.name, sm.CacheHits, sm.CacheMisses)
		}
		if sh.name == "coordinator" {
			if strings.Contains(raw, "docs_visited") || strings.Contains(raw, "docs_scored") {
				t.Errorf("coordinator reports pass counters: %s", raw)
			}
			if fc := m.Cluster.FrontCache; fc.Hits != sm.CacheHits || fc.Misses != sm.CacheMisses {
				t.Errorf("coordinator: search block says %d/%d, cluster.frontCache %d/%d", sm.CacheHits, sm.CacheMisses, fc.Hits, fc.Misses)
			}
			for _, pn := range m.Cluster.PerNode {
				nodeURLs = append(nodeURLs, pn.Node)
			}
		} else if sm.DocsVisited == 0 || sm.DocsScored == 0 || sm.DocsScored > sm.DocsVisited {
			t.Errorf("%s: %d documents scored of %d visited after one miss", sh.name, sm.DocsScored, sm.DocsVisited)
		}
	}
	if len(nodeURLs) != 3 {
		t.Fatalf("coordinator names %d nodes, want 3", len(nodeURLs))
	}
	var visited, scored uint64
	for _, u := range nodeURLs {
		m, _ := metricsOf(u)
		if m.Search.CacheHits != 0 || m.Search.CacheMisses != 0 {
			t.Errorf("node %s reports cache traffic %+v; partition engines run uncached", u, m.Search)
		}
		visited, scored = visited+m.Search.DocsVisited, scored+m.Search.DocsScored
	}
	if visited == 0 || scored == 0 || scored > visited {
		t.Errorf("nodes: %d documents scored of %d visited after one scatter", scored, visited)
	}
}

// searchPagesSeeds are the valid payloads the codec tests and the fuzz
// target start from: 0, 1 and 5 attached bodies, and no hits.
func searchPagesSeeds(g *synth.Generated) []SearchResponse {
	resp := SearchResponse{Query: "research", Seed: "marc snir"}
	for _, p := range g.Corpus.Pages[:5] {
		resp.Hits = append(resp.Hits, SearchHit{PageID: p.ID, URL: p.URL, Title: p.Title,
			Score: -float64(p.ID) - 0.5, HTML: html.RenderPage(p)})
	}
	none := SearchResponse{Query: resp.Query, Hits: append([]SearchHit(nil), resp.Hits...)}
	for i := range none.Hits {
		none.Hits[i].HTML = ""
	}
	one := SearchResponse{Query: resp.Query, Partial: true, Hits: append([]SearchHit(nil), none.Hits...)}
	one.Hits[3].HTML = resp.Hits[3].HTML
	return []SearchResponse{none, one, resp, {Query: "no hits"}}
}

// TestSearchPagesWireRoundTrip: the combined frame round-trips, decodes to
// what the JSON encoding of the same response decodes to, and rejects a
// body announced for anything but a hit in rank order.
func TestSearchPagesWireRoundTrip(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	seeds := searchPagesSeeds(g)
	for i, resp := range seeds {
		for _, zip := range []bool{false, true} {
			frame := frameOf(wireSearchPages, zip, func(e *store.Enc) { encodeSearchPagesWire(e, resp) })
			got, err := decodeSearchResponse(frame)
			if err != nil || !reflect.DeepEqual(got, resp) {
				t.Errorf("seed %d (gzip %v): round trip differs (err %v)", i, zip, err)
			}
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if viaJSON, err := decodeSearchResponse(raw); err != nil || !reflect.DeepEqual(viaJSON, resp) {
			t.Errorf("seed %d: JSON round trip differs (err %v)", i, err)
		}
	}

	bare, full := seeds[0], seeds[2]
	for name, attach := range map[string]func(e *store.Enc){
		"not a hit":    func(e *store.Enc) { e.Uvarint(1); e.Varint(424242); e.Str(full.Hits[0].HTML) },
		"out of order": func(e *store.Enc) { e.Uvarint(2); e.Varint(1); e.Str("b"); e.Varint(0); e.Str("a") },
		"twice":        func(e *store.Enc) { e.Uvarint(2); e.Varint(1); e.Str("b"); e.Varint(1); e.Str("b") },
		"empty body":   func(e *store.Enc) { e.Uvarint(1); e.Varint(0); e.Str("") },
		"count past the payload": func(e *store.Enc) {
			e.Uvarint(1 << 40)
		},
	} {
		frame := frameOf(wireSearchPages, false, func(e *store.Enc) {
			encodeSearchWire(e, bare)
			attach(e)
		})
		if _, err := decodeSearchResponse(frame); err == nil {
			t.Errorf("attached page %s: accepted", name)
		}
	}
}

// FuzzSearchPagesFrame throws bytes at everything between a search
// response body and the page cache — frame (magic, kind, CRC, gzip),
// payload, and the page check — both as a whole response body and, so the
// CRC does not stop every mutation at the door, as a payload inside a
// well-formed frame. Properties: no panic; a decode never holds more hits
// or bodies than the input has bytes (Dec.Count's guard); a payload that
// decodes re-encodes to a canonical form that decodes to the same thing
// and re-encodes to itself (byte-for-byte identity with the input holds
// only up to varint padding, which Dec tolerates); a body reaches the
// page cache only under the ID its own l2q-page-id names; and the decode
// memo changes no outcome (checkMemoDecode). The gzip-flagged wrap of a
// payload inflates to the plain wrap's, so it must decode to the same
// thing; only the memo, which keys on the frame's bytes, is checked on it
// again.
func FuzzSearchPagesFrame(f *testing.F) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		f.Fatal(err)
	}
	// Every body is cut to its page's first paragraph: a large seed makes
	// each input mutated from it slow to run and to minimize.
	short := make(map[corpus.PageID]string)
	for _, p := range g.Corpus.Pages[:5] {
		short[p.ID] = html.RenderPage(&corpus.Page{ID: p.ID, Entity: p.Entity, URL: p.URL, Title: p.Title, Paras: p.Paras[:1]})
	}
	seeds := searchPagesSeeds(g)
	for _, resp := range seeds {
		for i, h := range resp.Hits {
			if h.HTML != "" {
				resp.Hits[i].HTML = short[h.PageID]
			}
		}
	}
	for _, resp := range seeds {
		encode := func(e *store.Enc) { encodeSearchPagesWire(e, resp) }
		plain := frameOf(wireSearchPages, false, encode)
		f.Add(plain)
		f.Add(frameOf(wireSearchPages, true, encode)) // gzip-flagged
		// What FaultInjector.truncate leaves of a response: its first half.
		f.Add(plain[:len(plain)/2])
		payload, err := openFrame(plain, wireSearchPages)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		// A body announced under another hit's ID.
		if n := len(resp.Hits); n > 1 && resp.Hits[n-1].HTML != "" {
			swapped := resp
			swapped.Hits = append([]SearchHit(nil), resp.Hits...)
			swapped.Hits[0].HTML, swapped.Hits[n-1].HTML = resp.Hits[n-1].HTML, resp.Hits[0].HTML
			f.Add(frameOf(wireSearchPages, false, func(e *store.Enc) { encodeSearchPagesWire(e, swapped) }))
		}
	}
	f.Add(frameOf(wireSearch, false, func(e *store.Enc) { encodeSearchWire(e, seeds[0]) }))
	// Gzip members whose length trailer — the inflate buffer's size hint —
	// is wrong: lying (4 GiB, 0), and honestly 0 because an empty second
	// member follows the first.
	full, err := openFrame(frameOf(wireSearchPages, false, func(e *store.Enc) { encodeSearchPagesWire(e, seeds[2]) }), wireSearchPages)
	if err != nil {
		f.Fatal(err)
	}
	member := gzipMember(f, full)
	for _, isize := range []uint32{0xffffffff, 0} {
		lying := append([]byte(nil), member...)
		binary.LittleEndian.PutUint32(lying[len(lying)-4:], isize)
		f.Add(gzipFrame(wireSearchPages, lying))
	}
	f.Add(gzipFrame(wireSearchPages, append(append([]byte(nil), member...), gzipMember(f, nil)...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// check runs every property on body and returns its two decodes:
		// the SearchResponse and the client's fresh one.
		check := func(body []byte) (resp SearchResponse, decoded decodedSearch, respErr, decodeErr error) {
			decoded, decodeErr = checkMemoDecode(t, g.Tokenizer, body)
			resp, respErr = decodeSearchResponse(body)
			if respErr != nil {
				return resp, decoded, respErr, decodeErr
			}
			size := len(body)
			if payload, err := openFrame(body, frameKind(body)); err == nil {
				size = len(payload) // what a gzip-flagged frame inflates to
			}
			if len(resp.Hits) > size {
				t.Fatalf("%d hits decoded from %d bytes", len(resp.Hits), size)
			}
			enc := func(r SearchResponse) []byte {
				var e store.Enc
				encodeSearchPagesWire(&e, r)
				return append([]byte(nil), e.Data()...)
			}
			canon := enc(resp)
			d := store.NewDec(canon)
			again := decodeSearchPagesWire(d)
			if d.Err() != nil || !d.Done() {
				t.Fatalf("canonical re-encoding does not decode: %v", d.Err())
			}
			if !bytes.Equal(enc(again), canon) {
				t.Fatal("re-encoding is not a fixpoint")
			}

			c := testClient(testBase, g.Tokenizer, nil)
			announced := make(map[corpus.PageID]string)
			for _, h := range resp.Hits {
				if announced[h.PageID] == "" {
					announced[h.PageID] = h.HTML // the first body is the one accepted
				}
			}
			if decodeErr == nil {
				c.adopt(decoded.pages)
			}
			for id, p := range c.pageCache {
				if p.ID != id || html.ParsePage(announced[id], -1, g.Tokenizer).ID != id {
					t.Fatalf("page cached under %d carries l2q-page-id %d", id, p.ID)
				}
			}
			if decodeErr == nil {
				for id, body := range announced {
					if body != "" && c.pageCache[id] == nil {
						t.Fatalf("body announced as page %d accepted but not cached", id)
					}
				}
			}
			return resp, decoded, respErr, decodeErr
		}
		check(data)
		wrap := func(zip bool) []byte { return frameOf(wireSearchPages, zip, func(e *store.Enc) { e.Raw(data) }) }
		zipped := wrap(true)
		wantResp, want, wantRespErr, wantErr := check(wrap(false))
		got, err := checkMemoDecode(t, g.Tokenizer, zipped)
		if !sameErr(err, wantErr) {
			t.Fatalf("gzip-flagged frame: decode error %v, plain frame's %v", err, wantErr)
		}
		if err == nil {
			if diff := sameDecode(got, want); diff != "" {
				t.Fatalf("gzip-flagged frame: %s from the plain frame's decode", diff)
			}
		}
		if resp, err := decodeSearchResponse(zipped); !sameErr(err, wantRespErr) || !reflect.DeepEqual(resp, wantResp) {
			t.Fatalf("gzip-flagged frame: SearchResponse (error %v) differs from the plain frame's (error %v)", err, wantRespErr)
		}
	})
}
