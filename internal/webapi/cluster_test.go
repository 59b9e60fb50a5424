package webapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// startClusterNodes boots n node servers over g's corpus — NewNodeServer,
// the constructor l2qserve's node mode calls, each keeping only its own
// partitions of it — and returns their base URLs in node-ID order. wrap,
// when non-nil, interposes a per-node handler — a fault injector, a kill
// switch — between the wire and the server.
func startClusterNodes(t testing.TB, g *synth.Generated, nodes, replicas int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		srv, err := NewNodeServer(g.Corpus,
			search.ClusterSpec{Nodes: nodes, Replicas: replicas, NodeID: i}, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// dialCluster dials a coordinator over the node URLs with test-speed
// retries, the given per-node deadline (0 = default) and the default front
// cache.
func dialCluster(t testing.TB, urls []string, replicas int, deadline time.Duration) *Coordinator {
	t.Helper()
	return dialClusterCache(t, urls, replicas, deadline, 0)
}

// dialClusterCache is dialCluster with an explicit front-cache size
// (CoordinatorConfig.CacheSize: 0 default, < 0 off — l2qserve -cachesize).
func dialClusterCache(t testing.TB, urls []string, replicas int, deadline time.Duration, cacheSize int) *Coordinator {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	co, err := DialCoordinator(ctx, CoordinatorConfig{
		Nodes:        urls,
		Replicas:     replicas,
		NodeDeadline: deadline,
		Client:       ClientOptions{Retry: fastRetry},
		CacheSize:    cacheSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// serveCoordinator mounts co behind NewCoordinatorServer and dials a Client
// at it with test-speed retries — the one retriever through a cluster. It
// returns the client and the server's base URL.
func serveCoordinator(t testing.TB, g *synth.Generated, co *Coordinator) (*Client, string) {
	t.Helper()
	srv := httptest.NewServer(NewCoordinatorServer(co).Handler())
	t.Cleanup(srv.Close)
	c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	return c, srv.URL
}

// requireRanking fails t unless got is want, page for page and score for
// score (bit for bit): the cluster ≡ single node bar.
func requireRanking(t testing.TB, what string, got, want []search.Result) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d hits, single-node engine %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Page.ID != want[i].Page.ID || got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: (doc %d, %v) vs single-node (doc %d, %v)",
				what, i, got[i].Page.ID, got[i].Score, want[i].Page.ID, want[i].Score)
		}
	}
}

// frontCacheSizes are the two settings every cluster ≡ single node check
// runs under: the default front cache, and -cachesize -1.
var frontCacheSizes = []int{0, -1}

// sessionSetup builds the shared session fixtures (domain model, target,
// ground truth) once per corpus.
type sessionSetup struct {
	cfg    core.Config
	target *corpus.Entity
	aspect corpus.Aspect
	y      func(*corpus.Page) bool
	dm     *core.DomainModel
	rec    types.Recognizer
}

func newSessionSetup(t testing.TB, g *synth.Generated) *sessionSetup {
	t.Helper()
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
	return &sessionSetup{cfg: cfg, target: g.Corpus.Entities[g.Corpus.NumEntities()-1],
		aspect: aspect, y: y, dm: dm, rec: rec}
}

// run drives one session and returns its fired queries, gathered page IDs
// and rendered page bytes (byte equality of the rendered form is the
// download-fidelity check).
func (ss *sessionSetup) run(t testing.TB, sel core.Selector, ret core.Retriever) ([]core.Query, []corpus.PageID, map[corpus.PageID]string) {
	sess := core.NewSession(ss.cfg, ret, ss.target, ss.aspect, ss.y, ss.dm, ss.rec, 42)
	fired := mustRun(t, sess, sel, 3)
	ids := make([]corpus.PageID, 0, len(sess.Pages()))
	rendered := make(map[corpus.PageID]string, len(sess.Pages()))
	for _, p := range sess.Pages() {
		ids = append(ids, p.ID)
		rendered[p.ID] = html.RenderPage(p)
	}
	return fired, ids, rendered
}

// TestClusterSessionParity is the tentpole's differential bar: full
// harvesting sessions against a 3-node scatter-gather cluster fire the
// identical query sequence, gather the identical page set, and download
// byte-identical content vs the same session against the in-process
// single-node engine — across selection strategies, through a client
// dialed at a coordinator server (the whole serving surface, page proxying
// included), with the front cache and without it.
func TestClusterSessionParity(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	ss := newSessionSetup(t, g)

	urls := startClusterNodes(t, g, 3, 2, nil)
	co := dialCluster(t, urls, 2, 0)
	coNoCache := dialClusterCache(t, urls, 2, 0, -1)

	// The aggregated serving stats must be field-for-field the single
	// node's.
	want := Stats{
		Domain:      string(g.Corpus.Domain),
		NumEntities: g.Corpus.NumEntities(),
		NumPages:    g.Corpus.NumPages(),
		NumTerms:    engine.Index().NumTerms(),
		TotalTokens: engine.Index().TotalTokens(),
		Mu:          engine.Mu(),
		TopK:        engine.TopK(),
	}
	if co.Stats() != want {
		t.Fatalf("coordinator stats %+v, want single-node %+v", co.Stats(), want)
	}

	remote, _ := serveCoordinator(t, g, co)
	remoteNoCache, _ := serveCoordinator(t, g, coNoCache)
	if remote.Stats() != want {
		t.Fatalf("coordinator server stats %+v, want %+v", remote.Stats(), want)
	}

	strategies := map[string]func() core.Selector{
		"L2Q-BAL": core.NewL2QBAL,
		"P":       core.NewP,
		"R+t":     core.NewRT,
	}
	for name, sel := range strategies {
		lq, lp, lr := ss.run(t, sel(), engine)
		if len(lq) == 0 || len(lp) == 0 {
			t.Fatalf("%s: reference session gathered nothing", name)
		}
		for retName, ret := range map[string]core.Retriever{"coordinator": remote, "coordinator/cachesize -1": remoteNoCache} {
			cq, cp, cr := ss.run(t, sel(), ret)
			if !reflect.DeepEqual(lq, cq) {
				t.Errorf("%s/%s: fired queries differ:\n local %v\ncluster %v", name, retName, lq, cq)
			}
			if !reflect.DeepEqual(lp, cp) {
				t.Errorf("%s/%s: gathered pages differ:\n local %v\ncluster %v", name, retName, lp, cp)
			}
			for id, body := range lr {
				if cr[id] != body {
					t.Errorf("%s/%s: page %d content differs", name, retName, id)
				}
			}
		}
	}
	for _, c := range []*Coordinator{co, coNoCache} {
		if m := c.Metrics(); m.Scatters == 0 || m.Partials != 0 || m.Hedges != 0 {
			t.Errorf("healthy cluster metrics %+v: want scatters > 0 and no hedges/partials", m)
		}
	}
	// Three strategies re-fire the seed query: with the cache those are hits.
	if m, um := co.Metrics(), coNoCache.Metrics(); m.FrontCache.Hits == 0 || um.FrontCache != (CacheMetrics{}) {
		t.Errorf("front cache: %+v with it, %+v under -cachesize -1; want hits and all zeroes", m.FrontCache, um.FrontCache)
	}
}

// TestClusterParityUnderFaults holds the same differential bar with every
// node behind a seeded fault injector (20% 500s + 10% truncated bodies):
// the per-node retry budget plus replica failover absorb the faults and
// the session still matches the in-process run exactly.
func TestClusterParityUnderFaults(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	ss := newSessionSetup(t, g)

	injs := make([]*FaultInjector, 3)
	urls := startClusterNodes(t, g, 3, 2, func(i int, h http.Handler) http.Handler {
		injs[i] = &FaultInjector{ErrorRate: 0.20, TruncateRate: 0.10, Seed: uint64(300 + i), Next: h}
		return injs[i]
	})
	lq, lp, lr := ss.run(t, core.NewL2QBAL(), engine)
	if len(lq) == 0 || len(lp) == 0 {
		t.Fatal("session gathered nothing")
	}
	for _, cacheSize := range frontCacheSizes {
		remote, _ := serveCoordinator(t, g, dialClusterCache(t, urls, 2, 0, cacheSize))
		cq, cp, cr := ss.run(t, core.NewL2QBAL(), remote)
		if !reflect.DeepEqual(lq, cq) {
			t.Errorf("cachesize %d: fired queries differ under faults:\n local %v\ncluster %v", cacheSize, lq, cq)
		}
		if !reflect.DeepEqual(lp, cp) {
			t.Errorf("cachesize %d: gathered pages differ under faults:\n local %v\ncluster %v", cacheSize, lp, cp)
		}
		for id, body := range lr {
			if cr[id] != body {
				t.Errorf("cachesize %d: page %d content differs under faults", cacheSize, id)
			}
		}
	}
	faulted := false
	for i, inj := range injs {
		_, e5, tr := inj.Counts()
		if e5+tr > 0 {
			faulted = true
		}
		t.Logf("node %d: %d injected 500s, %d truncations", i, e5, tr)
	}
	if !faulted {
		t.Fatal("no injector fired a fault; parity proved nothing")
	}
}

// killSwitch fails every request with a retryable 500 once tripped — the
// deterministic node-down fault.
type killSwitch struct {
	down atomic.Bool
	next http.Handler
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.down.Load() {
		writeError(w, http.StatusInternalServerError, "node down")
		return
	}
	k.next.ServeHTTP(w, r)
}

// TestClusterNodeKillFailover kills one node outright: with replicas=2
// every partition it owned has a live replica, so scatters stay complete
// (no lost hits, rankings through a client on the coordinator server still
// identical to single-node) and the fan-out gauges show the failovers.
func TestClusterNodeKillFailover(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))

	kills := make([]*killSwitch, 3)
	urls := startClusterNodes(t, g, 3, 2, func(i int, h http.Handler) http.Handler {
		kills[i] = &killSwitch{next: h}
		return kills[i]
	})
	// Dialed while every node is up, searched (front cache on, then off)
	// with node 1 down.
	var (
		cos     []*Coordinator
		remotes []*Client
		coURL   string
	)
	for _, cacheSize := range frontCacheSizes {
		co := dialClusterCache(t, urls, 2, 0, cacheSize)
		remote, u := serveCoordinator(t, g, co)
		if coURL == "" {
			coURL = u
		}
		cos, remotes = append(cos, co), append(remotes, remote)
	}
	kills[1].down.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for ci, co := range cos {
		cacheSize := frontCacheSizes[ci]
		checked := 0
		for _, e := range g.Corpus.Entities[:6] {
			seed := e.SeedTokens()
			want := engine.SearchWithSeed(seed, nil)
			got, err := remotes[ci].Retrieve(ctx, nil, seed, nil)
			if err != nil {
				t.Fatalf("cachesize %d, entity %q: scatter with node 1 down failed: %v", cacheSize, e.Name, err)
			}
			requireRanking(t, fmt.Sprintf("cachesize %d, entity %q with node 1 down", cacheSize, e.Name), got, want)
			checked += len(want)
		}
		if checked == 0 {
			t.Fatal("no hits checked")
		}
		m := co.Metrics()
		if m.Hedges == 0 {
			t.Errorf("cachesize %d, metrics %+v: killed primary produced no hedges", cacheSize, m)
		}
		if m.Partials != 0 {
			t.Errorf("cachesize %d, metrics %+v: replicated cluster served partial results", cacheSize, m)
		}
		if m.PerNode[1].Errors == 0 {
			t.Errorf("cachesize %d, metrics %+v: no errors recorded against the killed node", cacheSize, m)
		}
	}
	// The coordinator server surfaces the same gauges on /api/v1/metrics.
	resp, err := http.Get(coURL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sm ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	if sm.Cluster == nil || sm.Cluster.Nodes != 3 || sm.Cluster.Hedges == 0 || len(sm.Cluster.PerNode) != 3 {
		t.Errorf("/api/v1/metrics cluster section %+v: want 3 nodes with hedges", sm.Cluster)
	}
}

// slowNodeCluster is three nodes at replicas 1 behind a coordinator with
// a per-node deadline of deadline, node 2 then slowed far past it: every
// scatter loses node 2's partition, with no replica to fail over to.
func slowNodeCluster(t *testing.T, g *synth.Generated, deadline time.Duration) *Coordinator {
	t.Helper()
	injs := make([]*FaultInjector, 3)
	urls := startClusterNodes(t, g, 3, 1, func(i int, h http.Handler) http.Handler {
		injs[i] = &FaultInjector{Next: h}
		return injs[i]
	})
	co := dialCluster(t, urls, 1, deadline)
	injs[2].SetLatency(2 * time.Second)
	return co
}

// TestClusterSlowNodePartial: with no replicas to fail over to, a node
// past the per-node deadline costs its partitions only — the scatter
// returns promptly with the live partitions' ranking flagged Partial
// (TestClientRefusesPartialRanking holds what the retriever makes of it).
func TestClusterSlowNodePartial(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 150 * time.Millisecond
	co := slowNodeCluster(t, g, deadline)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seed := g.Corpus.Entities[0].SeedTokens()
	start := time.Now()
	resp, err := co.search(ctx, seed, nil, 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("scatter with one slow node errored: %v", err)
	}
	if !resp.Partial {
		t.Fatal("slow node past the deadline did not flag the result partial")
	}
	if len(resp.Hits) == 0 {
		t.Fatal("partial result carried no hits from the live partitions")
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("scatter took %v: the slow node convoyed the whole query past its %v deadline", elapsed, deadline)
	}
	if m := co.Metrics(); m.Partials == 0 {
		t.Errorf("metrics %+v: partial scatter not counted", m)
	}
}

// TestClientRefusesPartialRanking: a Client dialed to a coordinator server
// is the retriever through a cluster, and core.Retriever promises the
// complete ranked list or an error. Asked while a partition has no live
// owner, Retrieve re-issues the search (the coordinator never caches a
// partial) and then fails with a *TransportError wrapping ErrPartial —
// never the live partitions' shortened list — while the HTTP surface
// itself still serves the flagged partial to whoever reads the flag.
func TestClientRefusesPartialRanking(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	co := slowNodeCluster(t, g, 150*time.Millisecond)
	srv := httptest.NewServer(NewCoordinatorServer(co).Handler())
	t.Cleanup(srv.Close)
	const attempts = 2
	c, err := DialContext(context.Background(), srv.URL, g.Tokenizer,
		ClientOptions{Retry: RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}

	seed := g.Corpus.Entities[0].SeedTokens()
	scatters := co.Metrics().Scatters
	res, err := c.Retrieve(context.Background(), nil, seed, nil)
	var te *TransportError
	if !errors.Is(err, ErrPartial) || !errors.As(err, &te) || res != nil {
		t.Fatalf("Retrieve over a partial scatter = %d results, %v; want no list and a *TransportError wrapping ErrPartial", len(res), err)
	}
	if te.Attempts != attempts || co.Metrics().Scatters != scatters+attempts {
		t.Errorf("%+v after %d scatters: want each of the %d attempts to scatter afresh", te, co.Metrics().Scatters-scatters, attempts)
	}
	if m := c.Metrics(); m.CachedPages != 0 {
		t.Errorf("client metrics %+v: a refused response left pages behind", m)
	}

	status, body := rawGet(t, srv.URL+"/api/v1/search?"+url.Values{"seed": seed}.Encode(), false)
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); status != http.StatusOK || err != nil || !sr.Partial || len(sr.Hits) == 0 {
		t.Errorf("HTTP surface served %d %+v (decode %v): want a flagged, non-empty partial", status, sr, err)
	}
}

// TestClusterScatterHonorsCallerCtx: the caller's context bounds the whole
// fan-out — per-node retries and replica walks do not outlive it.
func TestClusterScatterHonorsCallerCtx(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	injs := make([]*FaultInjector, 3)
	urls := startClusterNodes(t, g, 3, 2, func(i int, h http.Handler) http.Handler {
		injs[i] = &FaultInjector{Next: h}
		return injs[i]
	})
	co := dialCluster(t, urls, 2, 5*time.Second)
	for _, inj := range injs {
		inj.SetLatency(2 * time.Second)
	}

	seed := g.Corpus.Entities[0].SeedTokens()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = co.search(ctx, seed, nil, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("scatter under an expired caller ctx reported success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("scatter error %v does not surface the caller's deadline", err)
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("scatter outlived its caller's 100ms ctx by %v", elapsed)
	}

	// Already-dead ctx: no attempts at all.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	before := co.Metrics().Scatters
	if _, err := co.search(dead, seed, nil, 0); err == nil {
		t.Fatal("scatter under a canceled ctx reported success")
	}
	if co.Metrics().Scatters != before+1 {
		t.Log("canceled-ctx scatter still counted (acceptable)")
	}
}

// TestClusterWideOwnerChain: the page fetch sorts the whole owner chain
// by load whatever its length — replicas 9 on 9 nodes used to index past
// a fixed 8-slot scratch and panic the coordinator on the first page — and
// passes on the owner's bytes.
func TestClusterWideOwnerChain(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	co := dialCluster(t, startClusterNodes(t, g, 9, 9, nil), 9, 0)
	want := g.Corpus.Pages[0]
	got := make([]string, 1)
	err = co.pages(context.Background(), []corpus.PageID{want.ID}, got)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != html.RenderPage(want) {
		t.Errorf("page %d fetched through a 9-owner chain differs from the corpus copy", want.ID)
	}
}

// TestClusterPagesMatchSingleNode: a with=pages search through a
// coordinator answers the bytes a single-node server answers, in both
// codecs, whether the bodies it must fetch live on one, two or three owner
// nodes — and it fetches them in one batch per owner. Replicas 1, so every
// partition has one owner and the have list decides how many are asked.
func TestClusterPagesMatchSingleNode(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler())
	t.Cleanup(single.Close)
	co := dialCluster(t, startClusterNodes(t, g, 3, 1, nil), 1, 0)
	coSrv := httptest.NewServer(NewCoordinatorServer(co).Handler())
	t.Cleanup(coSrv.Close)
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))

	// A search whose hits live in all three partitions, in rank order.
	var seed []textproc.Token
	var hits []search.Result
	var parts []int
	for _, e := range g.Corpus.Entities {
		seed, hits, parts = e.SeedTokens(), engine.SearchWithSeed(e.SeedTokens(), []string{"research"}), nil
		for _, h := range hits {
			if p := co.ring.Partition(h.Page.ID); !slices.Contains(parts, p) {
				parts = append(parts, p)
			}
		}
		if len(parts) == 3 {
			break
		}
	}
	if len(parts) != 3 {
		t.Fatal("no search in the corpus has hits on all three nodes")
	}
	q := url.Values{"seed": seed, "q": {"research"}, "with": {"pages"}}.Encode()
	for owners := 1; owners <= 3; owners++ {
		var have []string
		for _, h := range hits {
			if !slices.Contains(parts[:owners], co.ring.Partition(h.Page.ID)) {
				have = append(have, fmt.Sprint(h.Page.ID))
			}
		}
		path := apiRoot + "/search?" + q + "&have=" + strings.Join(have, ",")
		for _, wire := range []bool{false, true} {
			co.bodies = newSizedCache(maxBodies, func(body string) int { return len(body) })
			before := co.Metrics().BodyFetches
			status, got := rawGet(t, coSrv.URL+path, wire)
			_, want := rawGet(t, single.URL+path, wire)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%d owners (wire=%v): coordinator answered %d, %d bytes unlike the single node's %d", owners, wire, status, len(got), len(want))
			}
			if n := co.Metrics().BodyFetches - before; n != int64(owners) {
				t.Errorf("%d owners (wire=%v): %d batched page requests, want one per owner", owners, wire, n)
			}
		}
	}
	if m := co.Metrics(); m.Hedges != 0 || m.BodyCache.Misses == 0 {
		t.Errorf("healthy cluster metrics %+v: want body-cache misses and no hedges", m)
	}
}

// TestClusterPagesPastTheBatchCap: a with=pages search at the largest k
// asks for more bodies than one batch route takes (maxHave), on one owner
// too. The coordinator splits them into batches of at most maxHave, so a
// healthy cluster answers the single node's bytes with no hedge and no
// node error: on one node, and on three nodes with two replicas, where
// the first owner picked also owns most of the other partitions' pages.
func TestClusterPagesPastTheBatchCap(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler())
	t.Cleanup(single.Close)
	query := []textproc.Token{"research"}
	hits := search.NewEngine(search.BuildIndex(g.Corpus.Pages)).SearchWithSeedTopKAppend(nil, 100, nil, query)
	if len(hits) <= maxHave {
		t.Fatalf("the search has %d hits, not more than one batch of %d", len(hits), maxHave)
	}
	path := apiRoot + "/search?" + url.Values{"q": query, "k": {"100"}, "with": {"pages"}}.Encode()
	for _, layout := range []struct{ nodes, replicas int }{{1, 1}, {3, 2}} {
		co := dialClusterCache(t, startClusterNodes(t, g, layout.nodes, layout.replicas, nil), layout.replicas, 0, -1)
		coSrv := httptest.NewServer(NewCoordinatorServer(co).Handler())
		t.Cleanup(coSrv.Close)
		for _, wire := range []bool{false, true} {
			co.bodies = newSizedCache(maxBodies, func(body string) int { return len(body) })
			status, got := rawGet(t, coSrv.URL+path, wire)
			_, want := rawGet(t, single.URL+path, wire)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%+v (wire=%v): coordinator answered %d, %d bytes unlike the single node's %d", layout, wire, status, len(got), len(want))
			}
		}
		m := co.Metrics()
		if m.Hedges != 0 || m.BodyFetches < 2*int64((len(hits)+maxHave-1)/maxHave) {
			t.Errorf("%+v: metrics %+v: want no hedge and at least %d batches a search", layout, m, (len(hits)+maxHave-1)/maxHave)
		}
		for _, node := range m.PerNode {
			if node.Errors != 0 {
				t.Errorf("%+v: node %s counted %d errors on a healthy cluster", layout, node.Node, node.Errors)
			}
		}
	}
}

// TestClusterEndpointGating: cluster endpoints 501 on a plain server, the
// jobs routes 501 on a node, the node-local search answers 503 (retryable)
// until the coordinator's stat push lands, and an implausible push is
// rejected 400.
func TestClusterEndpointGating(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	// Plain server: not a node, not a coordinator.
	plain := httptest.NewServer(NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler())
	t.Cleanup(plain.Close)
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/api/v1/cluster/search?part=0&q=x", http.StatusNotImplemented},
		{"GET", "/api/v1/cluster/stats", http.StatusNotImplemented},
		{"POST", "/api/v1/cluster/stats", http.StatusNotImplemented},
	} {
		req, _ := http.NewRequest(tc.method, plain.URL+tc.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s on plain server = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	// Node: no jobs — its sessions would rank a fraction of the corpus.
	urls := startClusterNodes(t, g, 2, 1, nil)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/api/v1/jobs"}, {"GET", "/api/v1/jobs/j1"}, {"DELETE", "/api/v1/jobs/j1"},
	} {
		req, _ := http.NewRequest(tc.method, urls[0]+tc.path, strings.NewReader(`{"entities":[0],"aspect":"RESEARCH"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented || derr != nil || env.Error.Code != "not_implemented" {
			t.Errorf("%s %s on a node = %d %+v, want the 501 envelope", tc.method, tc.path, resp.StatusCode, env.Error)
		}
	}

	// Node before any stat push: cluster search is a retryable 503.
	resp, err := http.Get(urls[0] + "/api/v1/cluster/search?part=0&q=research")
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !env.Error.Retryable {
		t.Errorf("pre-push cluster search = %d retryable=%v, want retryable 503", resp.StatusCode, env.Error.Retryable)
	}

	// Implausible global stats are rejected before they poison scoring.
	bad, _ := json.Marshal(GlobalStatsPayload{NumDocs: 0, TotalTokens: 1, NumTerms: 1, Mu: 1, TopK: 1})
	presp, err := http.Post(urls[0]+"/api/v1/cluster/stats", "application/json", strings.NewReader(string(bad)))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest {
		t.Errorf("implausible stats push = %d, want 400", presp.StatusCode)
	}

	// An unowned partition is a caller error, not a silent empty result.
	_ = dialCluster(t, urls, 1, 0) // the dial's push makes node 0 ready
	resp2, err := http.Get(urls[0] + "/api/v1/cluster/search?part=1&q=research")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("search of unowned partition = %d, want 400", resp2.StatusCode)
	}
}

// TestNodeServesOnlyOwnedPages: a node holds its partitions and nothing
// else. Every page is served by exactly the owners the ring names for it
// and is a not_found envelope on the rest, on both codecs; the whole-corpus
// search route refuses (non-retryable, naming the coordinator) instead of
// ranking a fraction of the corpus; and each node reports fewer pages than
// the corpus while the primaries it registers with still sum to all of it.
func TestNodeServesOnlyOwnedPages(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	const nodes, replicas = 3, 2
	urls := startClusterNodes(t, g, nodes, replicas, nil)
	ring := search.NewRing(nodes, replicas, 0)

	for _, p := range g.Corpus.Pages {
		owners := ring.AppendOwners(nil, ring.Partition(p.ID))
		served := 0
		for i, base := range urls {
			for _, wire := range []bool{false, true} {
				status, body := rawGet(t, base+html.PageHref(p.ID), wire)
				if slices.Contains(owners, i) {
					if status != http.StatusOK {
						t.Fatalf("page %d on owner %d (wire=%v) = %d %q", p.ID, i, wire, status, body)
					}
					served++
					continue
				}
				var env errorEnvelope
				if err := json.Unmarshal(body, &env); status != http.StatusNotFound || err != nil ||
					env.Error.Code != "not_found" || env.Error.Retryable {
					t.Fatalf("page %d on non-owner %d (wire=%v) = %d %q, want a 404 not_found envelope", p.ID, i, wire, status, body)
				}
			}
		}
		if served != 2*replicas {
			t.Fatalf("page %d served by %d node×codec pairs, want %d", p.ID, served, 2*replicas)
		}
	}

	primaries := 0
	for i, base := range urls {
		for _, wire := range []bool{false, true} {
			status, body := rawGet(t, base+"/api/v1/search?q=research", wire)
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); status != http.StatusNotImplemented || err != nil ||
				env.Error.Retryable || !strings.Contains(env.Error.Message, "coordinator") {
				t.Errorf("node %d: whole-corpus search (wire=%v) = %d %q, want a non-retryable refusal naming the coordinator", i, wire, status, body)
			}
		}
		cli, err := DialContext(context.Background(), base, g.Tokenizer, ClientOptions{Retry: fastRetry})
		if err != nil {
			t.Fatalf("node %d is not dial-able: %v", i, err)
		}
		if st := cli.Stats(); st.NumPages <= 0 || st.NumPages >= g.Corpus.NumPages() || st.NumEntities != g.Corpus.NumEntities() {
			t.Errorf("node %d stats %+v: want 0 < numPages < %d and the whole entity table (%d)", i, st, g.Corpus.NumPages(), g.Corpus.NumEntities())
		}
		ns, err := cli.ClusterStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		primaries += ns.NumDocs
	}
	if primaries != g.Corpus.NumPages() {
		t.Errorf("primary partitions hold %d pages, corpus has %d", primaries, g.Corpus.NumPages())
	}
}

// TestClusterOneNode: the smallest cluster, under the replication factor
// every process defaults to. The node used to reject replicas 2 of 1 node
// (after building its corpus) while the coordinator clamped the same value
// to 1; both now apply search.ClampReplicas and the cluster dials, ranks
// like the single-node engine through a client on its server and proxies
// pages — held as bodies in the coordinator's bounded cache, which its
// metrics show, not in its node client. Front cache on and off.
func TestClusterOneNode(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	urls := startClusterNodes(t, g, 1, 2, nil)
	for _, cacheSize := range frontCacheSizes {
		co := dialClusterCache(t, urls, 2, 0, cacheSize)
		if m := co.Metrics(); m.Nodes != 1 || m.Replicas != 1 || m.BodyCache != (CacheMetrics{}) {
			t.Fatalf("cachesize %d: 1-node cluster metrics %+v: want 1 node, replicas clamped to 1, an empty body cache", cacheSize, m)
		}
		remote, coURL := serveCoordinator(t, g, co)
		seed := g.Corpus.Entities[0].SeedTokens()
		want := engine.SearchWithSeed(seed, nil)
		got, err := remote.Retrieve(context.Background(), nil, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireRanking(t, fmt.Sprintf("cachesize %d", cacheSize), got, want)

		// What a coordinator holds, where an operator can see it:
		// /api/v1/metrics → cluster.{frontCache,bodyCache}.
		_, body := rawGet(t, coURL+"/api/v1/metrics", false)
		var sm ServerMetrics
		if err := json.Unmarshal(body, &sm); err != nil {
			t.Fatal(err)
		}
		wantFront := CacheMetrics{Misses: 1, Entries: 1}
		if cacheSize < 0 {
			wantFront = CacheMetrics{}
		}
		if sm.Cluster == nil || sm.Cluster.BodyCache.Entries != len(want) || sm.Cluster.BodyCache.Bytes == 0 ||
			sm.Cluster.FrontCache != wantFront || sm.Cluster.PerNode[0].Client.CachedPages != 0 {
			t.Errorf("cachesize %d: /api/v1/metrics cluster section %+v: want the %d bodies just fetched in the body cache, front cache %+v, no page in the node client",
				cacheSize, sm.Cluster, len(want), wantFront)
		}
	}
}

// TestClusterStatsPushValidation: POST /api/v1/cluster/stats is input from
// outside the program, and the frequency map is as much a part of it as
// the five numbers beside it. A push without the map, with a map shorter
// than numTerms, or with a count that is not positive is a 400 bad_request
// that leaves the node as it was — not yet ready (cluster search stays a
// 503), or ready and ranking exactly like the single-node engine. The
// first body is the one that used to be answered {"ok":true}: the node
// turned ready and scored every token at p(t|C)'s add-one floor. A body
// from a coordinator that still sends "docFreq" is accepted; the key is
// ignored.
func TestClusterStatsPushValidation(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	fullIdx := search.BuildIndex(g.Corpus.Pages)
	engine := search.NewEngine(fullIdx)
	st := search.StatsOf(fullIdx)
	honest := GlobalStatsPayload{NumDocs: st.NumDocs, TotalTokens: st.TotalTokens, NumTerms: st.NumTerms,
		Mu: engine.Mu(), TopK: search.DefaultTopK, CollFreq: st.CollFreq}

	var someTerm string
	for someTerm = range honest.CollFreq {
		break
	}
	with := func(edit func(cf map[string]int)) GlobalStatsPayload {
		p := honest
		p.CollFreq = maps.Clone(honest.CollFreq)
		edit(p.CollFreq)
		return p
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	noMap := honest
	noMap.CollFreq = nil
	bad := []struct{ name, body string }{
		{"five numbers and nothing else", `{"numDocs":1,"totalTokens":1,"numTerms":1,"mu":1,"topK":5}`},
		{"honest numbers, no collFreq", marshal(noMap)},
		{"collFreq one term short", marshal(with(func(cf map[string]int) { delete(cf, someTerm) }))},
		{"a zero count", marshal(with(func(cf map[string]int) { cf[someTerm] = 0 }))},
		{"a negative count", marshal(with(func(cf map[string]int) { cf[someTerm] = -3 }))},
	}
	push := func(url, body string) (int, errorEnvelope) {
		t.Helper()
		resp, err := http.Post(url+"/api/v1/cluster/stats", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, env
	}
	rejectAll := func(url, state string) {
		t.Helper()
		for _, tc := range bad {
			if status, env := push(url, tc.body); status != http.StatusBadRequest || env.Error.Code != "bad_request" {
				t.Errorf("%s node, %s: push answered %d %+v, want 400 bad_request", state, tc.name, status, env.Error)
			}
		}
	}

	urls := startClusterNodes(t, g, 2, 2, nil)
	rejectAll(urls[0], "unready")
	if status, _ := rawGet(t, urls[0]+"/api/v1/cluster/search?part=0&q=research", false); status != http.StatusServiceUnavailable {
		t.Fatalf("cluster search after the rejected pushes = %d, want 503: a rejected push must not turn the node ready", status)
	}

	// The legacy body: the honest payload plus the map this build no
	// longer has a field for. It makes node 0 ready on its own.
	var legacy map[string]any
	if err := json.Unmarshal([]byte(marshal(honest)), &legacy); err != nil {
		t.Fatal(err)
	}
	legacy["docFreq"] = map[string]int{someTerm: 1}
	if status, env := push(urls[0], marshal(legacy)); status != http.StatusOK {
		t.Fatalf("legacy body with docFreq answered %d %+v, want 200", status, env.Error)
	}
	if status, _ := rawGet(t, urls[0]+"/api/v1/cluster/search?part=0&q=research", false); status != http.StatusOK {
		t.Fatalf("cluster search after the accepted push = %d, want 200", status)
	}

	// Ready nodes (the dial pushes what the coordinator aggregated — the
	// same numbers) keep ranking like the single node across rejected
	// pushes. No front cache: every Retrieve is scored by the nodes.
	co := dialClusterCache(t, urls, 2, 0, -1)
	remote, _ := serveCoordinator(t, g, co)
	if !reflect.DeepEqual(co.global, honest) {
		t.Fatalf("coordinator aggregated %d terms / %d tokens / μ %v, single-node index %d / %d / %v",
			co.global.NumTerms, co.global.TotalTokens, co.global.Mu, honest.NumTerms, honest.TotalTokens, honest.Mu)
	}
	requireSingleNodeRanking := func(when string) {
		t.Helper()
		for _, e := range g.Corpus.Entities[:6] {
			seed := e.SeedTokens()
			want := engine.SearchWithSeed(seed, []textproc.Token{"research"})
			got, err := remote.Retrieve(context.Background(), nil, seed, []textproc.Token{"research"})
			if err != nil {
				t.Fatal(err)
			}
			requireRanking(t, fmt.Sprintf("%s: entity %d", when, e.ID), got, want)
		}
	}
	requireSingleNodeRanking("after the dial")
	for _, u := range urls {
		rejectAll(u, "ready")
	}
	requireSingleNodeRanking("after rejected pushes to ready nodes")
}

// FuzzClusterStatsPush throws any body at POST /api/v1/cluster/stats on a
// fresh node of a tiny two-node cluster, unready or already primed with
// the honest statistics. The node never panics; it answers 200 exactly
// when the body decodes to statistics ApplyGlobalStats' invariants hold
// for (five positive numbers, one positive count per term), and is then
// ready on them; anything else leaves Ready() and Stats() as they were.
func FuzzClusterStatsPush(f *testing.F) {
	g, err := synth.Generate(synth.Config{Domain: synth.DomainResearchers, NumEntities: 6, PagesPerEntity: 4, Seed: 2016})
	if err != nil {
		f.Fatal(err)
	}
	fullIdx := search.BuildIndex(g.Corpus.Pages)
	st := search.StatsOf(fullIdx)
	honest := GlobalStatsPayload{NumDocs: st.NumDocs, TotalTokens: st.TotalTokens, NumTerms: st.NumTerms,
		Mu: search.NewEngine(fullIdx).Mu(), TopK: search.DefaultTopK, CollFreq: st.CollFreq}
	spec := search.ClusterSpec{Nodes: 2, Replicas: 1}

	honestBody, err := json.Marshal(honest)
	if err != nil {
		f.Fatal(err)
	}
	oneTerm := honest
	oneTerm.NumTerms, oneTerm.CollFreq = 1, map[string]int{"research": 3}
	oneTermBody, _ := json.Marshal(oneTerm)
	for _, body := range [][]byte{
		honestBody, oneTermBody, honestBody[:len(honestBody)/2],
		[]byte(`{"numDocs":1,"totalTokens":1,"numTerms":1,"mu":1,"topK":5}`),
		[]byte(`{"numDocs":1,"totalTokens":1,"numTerms":1,"mu":1,"topK":5,"collFreq":{"a":0}}`),
		[]byte(`{"numDocs":1,"totalTokens":1,"numTerms":1,"mu":-1,"topK":5,"collFreq":{"a":1},"docFreq":{"a":1}}`),
		[]byte("null"), nil,
	} {
		f.Add(body, false)
		f.Add(body, true)
	}

	f.Fuzz(func(t *testing.T, body []byte, primed bool) {
		srv, err := NewNodeServer(g.Corpus, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		node := srv.Node()
		if primed {
			if err := node.ApplyGlobalStats(&honest); err != nil {
				t.Fatal(err)
			}
		}
		ready, stats := node.ready, node.Stats()

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, apiRoot+"/cluster/stats", strings.NewReader(string(body))))

		var p GlobalStatsPayload
		valid := json.Unmarshal(body, &p) == nil &&
			p.NumDocs > 0 && p.TotalTokens > 0 && p.NumTerms > 0 && p.Mu > 0 && p.TopK > 0 &&
			len(p.CollFreq) == p.NumTerms
		for _, cf := range p.CollFreq {
			valid = valid && cf > 0
		}
		if (rec.Code == http.StatusOK) != valid {
			t.Fatalf("answered %d to a body whose statistics are valid=%v: %s", rec.Code, valid, rec.Body.Bytes())
		}
		if !valid {
			if node.ready != ready || node.Stats() != stats {
				t.Fatalf("a refused push moved the node: ready %v → %v, stats %+v → %+v", ready, node.ready, stats, node.Stats())
			}
			return
		}
		if got := node.Stats(); !node.ready || got.Mu != p.Mu || got.TopK != p.TopK || got.TotalTokens != p.TotalTokens {
			t.Fatalf("an accepted push left the node ready=%v on %+v, pushed %+v", node.ready, got, p)
		}
	})
}

// mustRun is RunCtx over an engine that cannot fail: any error fails the
// test.
func mustRun(t testing.TB, s *core.Session, sel core.Selector, n int) []core.Query {
	t.Helper()
	fired, err := s.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}
