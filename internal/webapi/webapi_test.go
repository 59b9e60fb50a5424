package webapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// bootLive is the engine a read-only test server serves c through: a live
// engine booted from an index of c's pages, with the default cache and
// top-k, so its view ranks exactly as a frozen engine over c would.
func bootLive(c *corpus.Corpus) *search.LiveEngine {
	return search.NewLiveEngine(search.BuildIndex(c.Pages), search.Options{}, search.LiveOptions{})
}

// fixture bundles a small corpus, the engine view its read-only server
// searches, an httptest server and a dialed client.
type fixture struct {
	g      *synth.Generated
	engine *search.Engine
	srv    *httptest.Server
	client *Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)
	engine := live.View()
	srv := httptest.NewServer(NewServer(g.Corpus, live, nil).Handler())
	t.Cleanup(srv.Close)
	client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, engine: engine, srv: srv, client: client}
}

func TestStatsEndpoint(t *testing.T) {
	f := newFixture(t)
	st := f.client.Stats()
	if st.NumPages != f.g.Corpus.NumPages() || st.NumEntities != f.g.Corpus.NumEntities() {
		t.Errorf("stats %+v do not match corpus", st)
	}
	if st.Mu != f.engine.Mu() || st.TopK != f.engine.TopK() {
		t.Errorf("stats %+v do not match engine (mu=%v topK=%d)", st, f.engine.Mu(), f.engine.TopK())
	}
}

func TestSearchEndpointMatchesEngine(t *testing.T) {
	f := newFixture(t)
	e := f.g.Corpus.Entities[0]
	seed := e.SeedTokens()
	query := []string{"research"}

	local := f.engine.SearchWithSeed(seed, query)
	remote, err := f.client.Retrieve(context.Background(), nil, seed, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != len(remote) {
		t.Fatalf("local %d hits, remote %d", len(local), len(remote))
	}
	for i := range local {
		if local[i].Page.ID != remote[i].Page.ID {
			t.Errorf("rank %d: local page %d, remote %d", i, local[i].Page.ID, remote[i].Page.ID)
		}
		if d := local[i].Score - remote[i].Score; d > 1e-12 || d < -1e-12 {
			t.Errorf("rank %d: score drift %v", i, d)
		}
	}
}

func TestRemotePageFidelity(t *testing.T) {
	f := newFixture(t)
	orig := f.g.Corpus.Pages[3]
	got, err := f.client.PageCtx(context.Background(), orig.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != orig.ID || got.Entity != orig.Entity || got.Title != orig.Title {
		t.Fatalf("page identity: %d/%d/%q", got.ID, got.Entity, got.Title)
	}
	if len(got.Paras) != len(orig.Paras) {
		t.Fatalf("paragraphs %d, want %d", len(got.Paras), len(orig.Paras))
	}
	for i := range orig.Paras {
		if got.Paras[i].Aspect != orig.Paras[i].Aspect {
			t.Errorf("para %d aspect %q, want %q", i, got.Paras[i].Aspect, orig.Paras[i].Aspect)
		}
		if !reflect.DeepEqual(got.ParaTokens(i), orig.ParaTokens(i)) {
			t.Errorf("para %d tokens differ", i)
		}
	}
}

func TestClientPageCacheAndRequestCount(t *testing.T) {
	f := newFixture(t)
	id := f.g.Corpus.Pages[0].ID
	if _, err := f.client.PageCtx(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	before := f.client.Metrics().Requests
	for i := 0; i < 5; i++ {
		if _, err := f.client.PageCtx(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if after := f.client.Metrics().Requests; after != before {
		t.Errorf("cached fetches issued %d extra requests", after-before)
	}
}

// TestRemoteSessionParity is the headline test: a full domain-aware,
// context-aware harvesting session over the HTTP boundary selects exactly
// the same queries and gathers exactly the same pages as the in-process
// engine.
func TestRemoteSessionParity(t *testing.T) {
	f := newFixture(t)
	g := f.g
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }

	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var domain []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	target := g.Corpus.Entities[g.Corpus.NumEntities()-1]

	run := func(engine core.Retriever) ([]core.Query, []corpus.PageID) {
		sess := core.NewSession(cfg, engine, target, aspect, y, dm, rec, 42)
		fired := mustRun(t, sess, core.NewL2QBAL(), 3)
		var ids []corpus.PageID
		for _, p := range sess.Pages() {
			ids = append(ids, p.ID)
		}
		return fired, ids
	}

	localQ, localP := run(f.engine)
	counted := &countingRetriever{Retriever: f.client}
	remoteQ, remoteP := run(counted)
	if !reflect.DeepEqual(localQ, remoteQ) {
		t.Errorf("fired queries differ:\n local %v\nremote %v", localQ, remoteQ)
	}
	if !reflect.DeepEqual(localP, remoteP) {
		t.Errorf("gathered pages differ:\n local %v\nremote %v", localP, remoteP)
	}
	if len(localQ) == 0 || len(localP) == 0 {
		t.Fatal("session gathered nothing")
	}
	// One round trip per search, and nothing else: the dial probe plus one
	// request per search the session issued; every page came inside a
	// search response.
	if got, want := f.client.Metrics().Requests, int64(1+counted.searches); counted.searches < len(remoteQ) || got != want {
		t.Errorf("session issued %d requests for %d searches, want %d (dial + one per search)", got, counted.searches, want)
	}
	if m := f.client.Metrics(); m.PageFetches != 0 || int(m.PagesAttached) != len(remoteP) {
		t.Errorf("metrics %+v: want no page GETs and %d pages attached", m, len(remoteP))
	}
}

// countingRetriever counts the searches a session issues.
type countingRetriever struct {
	core.Retriever
	searches int
}

func (c *countingRetriever) Retrieve(ctx context.Context, dst []search.Result, seed, query []textproc.Token) ([]search.Result, error) {
	c.searches++
	return c.Retriever.Retrieve(ctx, dst, seed, query)
}

func TestHTTPErrorPaths(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		path string
		want int
	}{
		{"/api/v1/search", http.StatusBadRequest},
		{"/api/v1/search?q=x&k=-1", http.StatusBadRequest},
		{"/api/v1/search?q=x&k=zzz", http.StatusBadRequest},
		// The pre-v1 aliases are gone.
		{"/api/stats", http.StatusNotFound},
		{"/api/search?q=x", http.StatusNotFound},
		{"/page/notanumber.html", http.StatusBadRequest},
		{"/page/999999.html", http.StatusNotFound},
		{"/nosuchroute", http.StatusNotFound},
		{"/healthz", http.StatusOK},
	}
	for _, tc := range cases {
		resp, err := http.Get(f.srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestSearchKParameter(t *testing.T) {
	f := newFixture(t)
	get := func(path string) SearchResponse {
		t.Helper()
		resp, err := http.Get(f.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	if sr := get("/api/v1/search?q=research&k=2"); len(sr.Hits) > 2 {
		t.Errorf("k=2 returned %d hits", len(sr.Hits))
	}

	// A per-request k searches through the engine's one cache (the key
	// carries k), so repeating the request is a hit, not a rescore.
	first := get("/api/v1/search?q=research&k=3")
	hits0, misses0 := f.engine.CacheStats()
	again := get("/api/v1/search?q=research&k=3")
	hits1, misses1 := f.engine.CacheStats()
	if hits1 != hits0+1 || misses1 != misses0 {
		t.Errorf("repeated k=3 search: cache hits %d→%d, misses %d→%d; want one more hit", hits0, hits1, misses0, misses1)
	}
	if len(first.Hits) != 3 || !reflect.DeepEqual(first, again) {
		t.Errorf("repeated k=3 search differs: %+v vs %+v", first, again)
	}

	// q and seed are token-exact repeated parameters; the retired tokq
	// switch is ignored, not an error and not a mode.
	params := url.Values{"seed": f.g.Corpus.Entities[0].SeedTokens(), "q": {"research"}}.Encode()
	want := get("/api/v1/search?" + params)
	got := get("/api/v1/search?tokq=1&" + params)
	if len(want.Hits) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("stray tokq=1 changed the answer: %+v vs %+v", got, want)
	}
}

func TestEntitiesEndpoint(t *testing.T) {
	f := newFixture(t)
	ents, err := f.client.Entities(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != f.g.Corpus.NumEntities() {
		t.Fatalf("%d entities, want %d", len(ents), f.g.Corpus.NumEntities())
	}
	if ents[0].SeedQuery == "" {
		t.Error("entity missing seed query")
	}
}

func TestStartShutdown(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(g.Corpus, bootLive(g.Corpus), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("server still answering after shutdown")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialContext(context.Background(), "127.0.0.1:1", nil, ClientOptions{}); err == nil {
		t.Error("dial to closed port succeeded")
	}
	// A server that answers nonsense.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"topK":0}`)
	}))
	defer bad.Close()
	if _, err := DialContext(context.Background(), bad.URL, nil, ClientOptions{}); err == nil {
		t.Error("dial accepted implausible stats")
	}
}

// TestSearchCacheKeyNotFooledBySeparatorBytes is the boundary half of the
// injective-cache-key fix: q values arrive URL-decoded, so a client can
// send one token holding any byte. With a separator-joined key, q=a%1Fb
// (one unseen token, no hits) poisoned the cache entry of q=a&q=b and the
// second caller was served the empty ranking.
func TestSearchCacheKeyNotFooledBySeparatorBytes(t *testing.T) {
	f := newFixture(t)
	seed := f.g.Corpus.Entities[0].SeedTokens()
	if len(seed) < 2 {
		t.Skip("fixture seed query has one token")
	}
	search := func(q url.Values) SearchResponse {
		t.Helper()
		resp, err := http.Get(f.srv.URL + "/api/v1/search?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET search %v: status %d", q, resp.StatusCode)
		}
		var out SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, sep := range []string{"\x1f", "\x00"} {
		glued := search(url.Values{"q": {strings.Join(seed, sep)}})
		if len(glued.Hits) != 0 {
			t.Fatalf("sep %q: glued token matched %d pages", sep, len(glued.Hits))
		}
	}
	want := f.engine.SearchReference(seed)
	got := search(url.Values{"q": seed}).Hits
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("q=%q: %d hits after the glued queries, reference %d", seed, len(got), len(want))
	}
	for i := range want {
		if got[i].PageID != want[i].Page.ID || got[i].Score != want[i].Score {
			t.Fatalf("rank %d: served (page %d, %v), reference (page %d, %v)",
				i, got[i].PageID, got[i].Score, want[i].Page.ID, want[i].Score)
		}
	}
}

// tokensSeen is a backend that records the tokens its last search was
// handed.
type tokensSeen struct {
	backend
	seed, query []textproc.Token
}

func (b *tokensSeen) search(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	b.seed, b.query = seed, query
	return b.backend.search(ctx, seed, query, k)
}

// FuzzSearchParams sends any raw query string to /api/v1/search on a
// single server and to /api/v1/cluster/search on a primed one-node
// cluster. Neither route panics; each answers 200, or the error envelope
// with 400, 501 or 503; a 200 names q or seed, and holds a have list of at
// most maxHave IDs when it was asked one; and it ranks exactly what the
// engine ranks for the request's own non-empty q and seed values. On the
// single server those values are what the engine was handed, one token
// per value: a space inside a value is a phrase, never a split.
func FuzzSearchParams(f *testing.F) {
	g, err := synth.Generate(synth.Config{Domain: synth.DomainResearchers, NumEntities: 6, PagesPerEntity: 4, Seed: 2016})
	if err != nil {
		f.Fatal(err)
	}
	live := bootLive(g.Corpus)
	singleSrv := NewServer(g.Corpus, live, nil)
	seen := &tokensSeen{backend: singleSrv.backend}
	singleSrv.backend = seen
	single := singleSrv.Handler()
	nodeSrv, err := NewNodeServer(g.Corpus, search.ClusterSpec{Nodes: 1, Replicas: 1}, 0)
	if err != nil {
		f.Fatal(err)
	}
	node := nodeSrv.Node()
	// One node holds the whole corpus, so its statistics are the global ones.
	st := search.StatsOf(search.BuildIndex(g.Corpus.Pages))
	if err := node.ApplyGlobalStats(&GlobalStatsPayload{NumDocs: st.NumDocs, TotalTokens: st.TotalTokens, NumTerms: st.NumTerms,
		Mu: live.View().Mu(), TopK: search.DefaultTopK, CollFreq: st.CollFreq}); err != nil {
		f.Fatal(err)
	}
	clustered := nodeSrv.Handler()

	seed := url.Values{"seed": g.Corpus.Entities[1].SeedTokens(), "q": {"research"}}.Encode()
	have := make([]string, maxHave+1)
	for i := range have {
		have[i] = strconv.Itoa(i)
	}
	for _, raw := range []string{
		seed, seed + "&part=0", seed + "&part=0&k=3", seed + "&k=0", seed + "&k=101", seed + "&part=7",
		"q=data+mining&seed=a+b&part=0", "q=research&q=&seed=&part=0",
		seed + "&with=pages&have=" + strings.Join(have[:maxHave], ","),
		seed + "&with=pages&have=" + strings.Join(have, ","),
		seed + "&have=1", seed + "&with=pages&with=pages", seed + "&with=html",
		"", "q=&seed=", "q=%zz&seed=x", "part=0", "k=2",
	} {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw string) {
		qv, _ := url.ParseQuery(raw) // what the server reads: undecodable pairs dropped
		var seed, query []textproc.Token
		for _, v := range qv["seed"] {
			if v != "" {
				seed = append(seed, v)
			}
		}
		for _, v := range qv["q"] {
			if v != "" {
				query = append(query, v)
			}
		}
		k, _ := strconv.Atoi(qv.Get("k"))
		for _, route := range []struct {
			path string
			h    http.Handler
			seen *tokensSeen // nil: the route's tokens are not recorded
			rank func() []search.Result
		}{
			{apiRoot + "/search", single, seen, func() []search.Result {
				return live.View().SearchWithSeedTopKAppend(nil, k, seed, query)
			}},
			{apiRoot + "/cluster/search", clustered, nil, func() []search.Result {
				res, _, _ := node.searchPartition(0, seed, query, k)
				return res
			}},
		} {
			req := httptest.NewRequest(http.MethodGet, route.path, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			route.h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				var env errorEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != errorCode(rec.Code) ||
					rec.Code != http.StatusBadRequest && rec.Code != http.StatusNotImplemented && rec.Code != http.StatusServiceUnavailable {
					t.Fatalf("%s?%s = %d %q, want 200 or the 400/501/503 envelope", route.path, raw, rec.Code, rec.Body.Bytes())
				}
				continue
			}
			if len(seed)+len(query) == 0 {
				t.Fatalf("%s?%s = 200 naming neither q nor seed", route.path, raw)
			}
			if lists, ok := qv["have"]; ok && strings.Count(lists[0], ",") >= maxHave {
				t.Fatalf("%s?%s = 200 on a have list past %d IDs", route.path, raw, maxHave)
			}
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if rs := route.seen; rs != nil && (!slices.Equal(rs.seed, seed) || !slices.Equal(rs.query, query)) {
				t.Fatalf("%s?%s handed the engine seed %q query %q, want %q %q", route.path, raw, rs.seed, rs.query, seed, query)
			}
			want := route.rank()
			same := len(resp.Hits) == len(want)
			for i := 0; same && i < len(want); i++ {
				same = resp.Hits[i].PageID == want[i].Page.ID && resp.Hits[i].Score == want[i].Score
			}
			if !same {
				t.Fatalf("%s?%s ranked %+v, the engine ranks seed %q query %q as %v", route.path, raw, resp, seed, query, want)
			}
		}
	})
}
