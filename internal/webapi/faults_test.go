package webapi

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// fastRetry keeps fault tests quick: generous attempts, millisecond backoff.
var fastRetry = RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}

// derivedClient builds a client aimed at base, reusing f's tokenizer and
// dialed stats without re-dialing (the target may be deliberately broken).
func derivedClient(f *fixture, base string, retry RetryPolicy) *Client {
	return &Client{
		base:      strings.TrimRight(base, "/"),
		http:      &http.Client{Timeout: 30 * time.Second},
		tok:       f.g.Tokenizer,
		stats:     f.client.stats,
		retry:     retry.withDefaults(),
		pageCache: make(map[corpus.PageID]*corpus.Page),
	}
}

// newFaultyFixture serves the standard fixture corpus through a fault
// injector and dials it with a patient, fast-backoff client.
func newFaultyFixture(t *testing.T, inj *FaultInjector) (*fixture, *FaultInjector) {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)
	engine := live.View()
	inj.Next = NewServer(g.Corpus, live, nil).Handler()
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, engine: engine, srv: srv, client: client}, inj
}

// TestRetryOn5xx: a server that fails each request twice before serving it
// is invisible to the client — the retry loop absorbs the 500s.
func TestRetryOn5xx(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	backend := NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler()
	var perPath sync.Map // path → *atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, _ := perPath.LoadOrStore(r.URL.RequestURI(), new(atomic.Int64))
		if v.(*atomic.Int64).Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Retry: fastRetry})
	if err != nil {
		t.Fatalf("dial through double-500s: %v", err)
	}
	e := g.Corpus.Entities[0]
	res, err := client.Retrieve(context.Background(), nil, e.SeedTokens(), []string{"safety"})
	if err != nil {
		t.Fatalf("search through double-500s: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if m := client.Metrics(); m.Retries < 4 {
		t.Errorf("expected several retries, metrics %+v", m)
	} else if m.Errors != 0 {
		t.Errorf("no operation should have failed, metrics %+v", m)
	}
}

// TestRetryExhaustion: a hard-down endpoint surfaces as a typed
// *TransportError carrying the status and attempt count — not as a silent
// empty result.
func TestRetryExhaustion(t *testing.T) {
	f := newFixture(t)
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down for maintenance", http.StatusInternalServerError)
	}))
	defer down.Close()
	client := derivedClient(f, down.URL,
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})

	_, err := client.Retrieve(context.Background(), nil, []string{"x"}, nil)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T), want *TransportError", err, err)
	}
	if te.Status != http.StatusInternalServerError || te.Attempts != 3 || te.Op != "search" {
		t.Errorf("TransportError %+v, want status 500 after 3 search attempts", te)
	}
}

// TestNonRetryableStatus: 4xx is a contract error; the client must not
// burn its retry budget on it.
func TestNonRetryableStatus(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "no such thing", http.StatusNotFound)
	}))
	defer srv.Close()
	f := newFixture(t)
	client := derivedClient(f, srv.URL, fastRetry)

	_, err := client.PageCtx(context.Background(), 3)
	var te *TransportError
	if !errors.As(err, &te) || te.Status != http.StatusNotFound {
		t.Fatalf("error %v, want 404 TransportError", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("404 was retried %d times", n-1)
	}
}

// TestTruncatedBodyRetried: a response that dies mid-body (full
// Content-Length declared, half written) is a transient fault the client
// retries, not a short-but-accepted payload.
func TestTruncatedBodyRetried(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	backend := NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler()
	trunc := &FaultInjector{Next: backend, TruncateRate: 1}
	var failFirst sync.Map
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, seen := failFirst.LoadOrStore(r.URL.RequestURI(), true); !seen {
			trunc.ServeHTTP(w, r)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Retry: fastRetry})
	if err != nil {
		t.Fatalf("dial through truncation: %v", err)
	}
	e := g.Corpus.Entities[1]
	res, err := client.Retrieve(context.Background(), nil, e.SeedTokens(), []string{"engine"})
	if err != nil {
		t.Fatalf("search through truncation: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	m := client.Metrics()
	if m.Retries == 0 {
		t.Errorf("truncated responses should have forced retries, metrics %+v", m)
	}
	if _, _, truncated := trunc.Counts(); truncated == 0 {
		t.Error("injector truncated nothing; the test exercised no fault")
	}
}

// TestPerRequestTimeoutRetried: a response slower than the client's
// per-request timeout is the canonical transient fault — it must consume
// retry attempts, not bypass the budget. (http.Client.Timeout errors also
// satisfy errors.Is(err, context.DeadlineExceeded); cancellation is
// judged by the caller's ctx, not error identity.)
func TestPerRequestTimeoutRetried(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	backend := NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler()
	var stallFirst sync.Map // URI → *atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, _ := stallFirst.LoadOrStore(r.URL.RequestURI(), new(atomic.Int64))
		if v.(*atomic.Int64).Add(1) <= 2 {
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second): // far past the client timeout
			}
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{
		Retry:   RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial through stalls: %v", err)
	}
	e := g.Corpus.Entities[2]
	res, err := client.Retrieve(context.Background(), nil, e.SeedTokens(), []string{"engine"})
	if err != nil {
		t.Fatalf("search through stalls: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if m := client.Metrics(); m.Retries == 0 {
		t.Errorf("timed-out requests consumed no retries, metrics %+v", m)
	}
}

// TestContextCancelAborts: cancellation cuts a stalled request immediately
// (no retries, no 30 s timeout wait).
func TestContextCancelAborts(t *testing.T) {
	f := newFixture(t)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	}))
	defer stall.Close()
	client := derivedClient(f, stall.URL, fastRetry)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Retrieve(ctx, nil, []string{"x"}, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled search succeeded?")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want ~50ms", elapsed)
	}
}

// awaitJoins blocks until n followers have joined the flight of id —
// counted under g.mu by join itself, so no clock decides when the leader
// may end.
func awaitJoins[V any](g *flightGroup[V], id corpus.PageID, n int) {
	for {
		g.mu.Lock()
		joined := 0
		if call := g.m[id]; call != nil {
			joined = call.joins
		}
		g.mu.Unlock()
		if joined >= n {
			return
		}
		runtime.Gosched()
	}
}

// heldPages wraps every node handler so that its first batch of pages
// (/api/v1/cluster/pages) is held until hold returns; later batches pass
// straight through. batches counts the batches the node was asked for.
func heldPages(batches *atomic.Int64, entered chan<- struct{}, hold func(*http.Request)) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == apiRoot+"/cluster/pages" && batches.Add(1) == 1 {
				close(entered)
				hold(r)
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestPrefetchSingleflight: concurrent Coordinator.PagesHTML calls for one
// page — hit lists the coordinator attaches at once — coalesce onto the
// leader's one batch, and every follower gets its body.
func TestPrefetchSingleflight(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	page := g.Corpus.Pages[5]
	var batches atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	co := dialCluster(t, startClusterNodes(t, g, 1, 1, heldPages(&batches, entered, func(*http.Request) { <-release })), 1, 0)

	const followers = 7
	results := make(chan error, followers+1)
	fetch := func() {
		got := make([]string, 1)
		err := co.pages(context.Background(), []corpus.PageID{page.ID}, got)
		if err == nil && got[0] != html.RenderPage(page) {
			err = errors.New("a caller got another body than the page's")
		}
		results <- err
	}
	go fetch()
	<-entered // the leader holds the flight
	for i := 0; i < followers; i++ {
		go fetch()
	}
	awaitJoins(&co.flight, page.ID, followers)
	close(release)
	for i := 0; i <= followers; i++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	if n := batches.Load(); n != 1 {
		t.Errorf("%d concurrent calls sent %d batches, want 1", followers+1, n)
	}
	if _, lead := co.flight.join(page.ID); !lead {
		t.Error("a finished flight still holds its page's slot")
	}
}

// TestSingleflightLeaderCancelDoesNotPoisonFollowers: a flight runs under
// its leader's context, so a leader aborted by its OWN cancellation (one
// hit list's attach bailing out) fails with that cancellation, but a
// follower whose context is alive must not inherit it: the follower
// downloads the page itself, a second batch.
func TestSingleflightLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	page := g.Corpus.Pages[9]
	ids := []corpus.PageID{page.ID}
	var batches atomic.Int64
	entered := make(chan struct{})
	co := dialCluster(t, startClusterNodes(t, g, 1, 1, heldPages(&batches, entered, func(r *http.Request) { <-r.Context().Done() })), 1, 0)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- co.pages(leaderCtx, ids, make([]string, 1)) }()
	<-entered // the leader's batch is held at the node

	type result struct {
		body string
		err  error
	}
	follower := make(chan result, 1)
	go func() {
		got := make([]string, 1)
		err := co.pages(context.Background(), ids, got)
		follower <- result{got[0], err}
	}()
	awaitJoins(&co.flight, page.ID, 1)
	cancelLeader() // a download its own caller abandons

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error %v, want its own cancellation", err)
	}
	if r := <-follower; r.err != nil || r.body != html.RenderPage(page) {
		t.Errorf("live-context follower got %d bytes, error %v: it inherited the leader's cancellation instead of downloading", len(r.body), r.err)
	}
	if n := batches.Load(); n != 2 {
		t.Errorf("page asked for in %d batches, want 2: the leader's, abandoned, and the follower's own", n)
	}
}

// batchFault spoils every batch of page bodies a node answers
// (/api/v1/cluster/pages) the way its mode says: "503" answers the
// retryable error envelope, "truncated" cuts the body mid-transfer
// (FaultInjector's truncation), "wrong id" serves the batch with another
// page's ID in its first body's meta. An empty mode spoils nothing.
type batchFault struct {
	mode     atomic.Value // string
	next     http.Handler
	truncate FaultInjector
}

func (b *batchFault) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := b.mode.Load().(string)
	if r.URL.Path != apiRoot+"/cluster/pages" || mode == "" {
		b.next.ServeHTTP(w, r)
		return
	}
	switch mode {
	case "503":
		writeError(w, http.StatusServiceUnavailable, "batch refused")
	case "truncated":
		b.truncate.ServeHTTP(w, r)
	case "wrong id":
		rec := httptest.NewRecorder()
		b.next.ServeHTTP(rec, r)
		var pages []PageBody
		if err := decodeFramePayload(rec.Body.Bytes(), wirePages, func(d *store.Dec) { pages = decodePagesWire(d) }); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error()) // the coordinator asks for frames
			return
		}
		pages[0].HTML = strings.Replace(pages[0].HTML, `<meta name="l2q-page-id" content="`, `<meta name="l2q-page-id" content="9`, 1)
		w.Write(marshalFrame(wirePages, func(e *store.Enc) { encodePagesWire(e, pages) }))
	}
}

// TestClusterBatchFailureFallsBack: when one owner's batch fails — a 503,
// a truncated body, a body announcing the wrong page — past its retries,
// its pages come from their replica instead, in one batch again, which
// counts as a hedge; what the failed batch carried is never cached. With
// every owner failing, the call fails and caches nothing at all.
func TestClusterBatchFailureFallsBack(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	faults := make([]*batchFault, 3)
	urls := startClusterNodes(t, g, 3, 2, func(i int, h http.Handler) http.Handler {
		faults[i] = &batchFault{next: h, truncate: FaultInjector{TruncateRate: 1, Next: h}}
		return faults[i]
	})
	// Pages of partition 0, owned by nodes 0 and 1: an idle coordinator
	// sends their one batch to node 0, the partition's primary.
	ring := search.NewRing(3, 2, 0)
	var ids []corpus.PageID
	var want []string
	for _, p := range g.Corpus.Pages {
		if ring.Partition(p.ID) == 0 && len(ids) < 4 {
			ids, want = append(ids, p.ID), append(want, html.RenderPage(p))
		}
	}
	ctx := context.Background()
	for _, mode := range []string{"503", "truncated", "wrong id"} {
		co := dialCluster(t, urls, 2, 0)
		faults[0].mode.Store(mode)
		got := make([]string, len(ids))
		if err := co.pages(ctx, ids, got); err != nil {
			t.Fatalf("%s: node 0's batch failed and its replica did not stand in: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bodies from the replica differ from the pages", mode)
		}
		m := co.Metrics()
		if m.Hedges != 1 || m.PerNode[1].Hedges != 1 || m.PerNode[0].Errors != 1 || m.BodyFetches != 2 {
			t.Errorf("%s: metrics %+v: want one failed batch at node 0, then one hedged batch of %d pages at node 1", mode, m, len(ids))
		}
		for i, id := range ids {
			var kb [binary.MaxVarintLen64]byte
			if body, ok := co.bodies.get(binary.AppendUvarint(kb[:0], uint64(id))); !ok || body != want[i] {
				t.Errorf("%s: page %d cached=%v, and not as its replica served it", mode, id, ok)
			}
		}

		faults[1].mode.Store(mode)
		co = dialCluster(t, urls, 2, 0)
		if err := co.pages(ctx, ids, make([]string, len(ids))); err == nil {
			t.Errorf("%s: every owner failing, the batch still succeeded", mode)
		}
		if m := co.Metrics(); m.BodyCache.Entries != 0 || m.Hedges != 0 {
			t.Errorf("%s: every owner failing: metrics %+v, want nothing cached and no hedge", mode, m)
		}
		faults[0].mode.Store("")
		faults[1].mode.Store("")
	}
}

// TestMalformedPageRejected: a document without the l2q-page-id meta must
// be rejected, not ingested as page 0 (which would alias every malformed
// page onto one slot in the session's dedup set).
func TestMalformedPageRejected(t *testing.T) {
	f := newFixture(t)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/page/") {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Write([]byte("<!DOCTYPE html>\n<html><head><title>x</title></head><body><p>junk</p></body></html>"))
			return
		}
		http.NotFound(w, r)
	}))
	defer bad.Close()
	client := derivedClient(f, bad.URL,
		RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})

	_, err := client.PageCtx(context.Background(), 7)
	if err == nil {
		t.Fatal("malformed page accepted")
	}
	if !strings.Contains(err.Error(), "l2q-page-id") {
		t.Errorf("error %v does not name the missing meta", err)
	}

	// The same check guards a body attached to a search response: one
	// whose l2q-page-id disagrees with the hit it is announced for fails
	// the whole response, which is retried — and the body is never cached
	// under the announced ID. Both encodings of the response.
	pages := f.g.Corpus.Pages
	mislabeled := SearchResponse{Query: "x", Hits: []SearchHit{
		{PageID: pages[1].ID, Score: -1, HTML: html.RenderPage(pages[1])},
		{PageID: pages[2].ID, Score: -2, HTML: html.RenderPage(pages[3])}, // page 3's bytes under page 2's ID
	}}
	for _, codec := range []Codec{CodecJSON, CodecAuto} {
		for _, goodAfter := range []int64{1, 1 << 30} {
			var searches atomic.Int64
			real := NewServer(f.g.Corpus, bootLive(f.g.Corpus), nil).Handler()
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != apiRoot+"/search" || searches.Add(1) > goodAfter {
					real.ServeHTTP(w, r)
					return
				}
				if strings.Contains(r.Header.Get("Accept"), wireContentType) {
					w.Write(marshalFrame(wireSearchPages, func(e *store.Enc) { encodeSearchPagesWire(e, mislabeled) }))
					return
				}
				json.NewEncoder(w).Encode(mislabeled)
			}))
			c := derivedClient(f, srv.URL, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
			c.codec = codec
			res, err := c.Retrieve(context.Background(), nil, f.g.Corpus.Entities[0].SeedTokens(), []string{"research"})
			srv.Close()
			if goodAfter == 1 {
				// One bad response, then the real server: absorbed by a retry.
				if err != nil || len(res) == 0 {
					t.Fatalf("%v: mislabeled body not absorbed by a retry: %d results, %v", codec, len(res), err)
				}
				if m := c.Metrics(); m.Retries != 1 || m.Errors != 0 {
					t.Errorf("%v: metrics %+v, want exactly one retry", codec, m)
				}
			} else if err == nil || !strings.Contains(err.Error(), "l2q-page-id") {
				t.Errorf("%v: mislabeled body accepted for good: %v", codec, err)
			}
			if p := c.cachedPage(pages[2].ID); p != nil && (goodAfter != 1 || p.Title != pages[2].Title) {
				t.Errorf("%v: mislabeled body was cached under the announced ID %d (title %q)", codec, pages[2].ID, p.Title)
			}
			if p := c.cachedPage(pages[3].ID); goodAfter != 1 && p != nil {
				t.Errorf("%v: rejected body was cached under its own ID", codec)
			}
		}
	}
}

// TestDifferentialFaultParity is the acceptance bar: with the injector
// erroring 35% of requests and truncating another 15% (dense, because a
// session is only one request per fired query), a full domain- and
// context-aware harvesting session through the flaky HTTP boundary fires
// the identical query sequence and gathers the identical page set as the
// in-process engine. Retries make faults invisible — not approximated.
func TestDifferentialFaultParity(t *testing.T) {
	f, inj := newFaultyFixture(t, &FaultInjector{ErrorRate: 0.35, TruncateRate: 0.15, Seed: 43})
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
	remoteQ, remoteP := run(f.client)
	if !reflect.DeepEqual(localQ, remoteQ) {
		t.Errorf("fired queries differ under faults:\n local %v\nremote %v", localQ, remoteQ)
	}
	if !reflect.DeepEqual(localP, remoteP) {
		t.Errorf("gathered pages differ under faults:\n local %v\nremote %v", localP, remoteP)
	}
	if len(localQ) == 0 || len(localP) == 0 {
		t.Fatal("session gathered nothing")
	}
	_, errors500, truncated := inj.Counts()
	if errors500 == 0 || truncated == 0 {
		t.Fatalf("injector fired %d 500s and %d truncations, want both kinds; the differential test proved too little", errors500, truncated)
	}
	m := f.client.Metrics()
	if m.Retries == 0 {
		t.Errorf("no retries recorded under a 50%% fault rate, metrics %+v", m)
	}
	if m.Errors != 0 {
		t.Errorf("operations failed for good (%d): parity held by luck, raise MaxAttempts", m.Errors)
	}
	t.Logf("parity under faults: %d requests, %d retried; injector served %d faults",
		m.Requests, m.Retries, errors500+truncated)
}
