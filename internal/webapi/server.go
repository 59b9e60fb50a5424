// Package webapi puts the search engine behind a real HTTP boundary.
//
// The paper's harvester talks to a commercial search API and downloads
// result pages over the network (§I: "querying a search engine and
// downloading the result pages ... require significant time and bandwidth,
// as well as a considerable financial cost to access commercial search
// APIs"). In the experiments that boundary is simulated in-process; this
// package makes it literal: Server exposes the corpus + engine as a JSON
// search API plus rendered HTML pages, and Client implements core.Retriever
// over that API — searching remotely, receiving pages as HTML and
// segmenting them with internal/html. Ranks and scores are the server's;
// the client computes none.
package webapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/harvest"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/textproc"
)

// Stats is the /api/v1/stats payload: the collection the server holds and
// the result-list size (TopK) a client pages by.
type Stats struct {
	Domain      string  `json:"domain"`
	NumEntities int     `json:"numEntities"`
	NumPages    int     `json:"numPages"`
	NumTerms    int     `json:"numTerms"`
	TotalTokens int     `json:"totalTokens"`
	Mu          float64 `json:"mu"`
	TopK        int     `json:"topK"`
}

// SearchHit is one result in the /api/v1/search payload.
type SearchHit struct {
	PageID corpus.PageID `json:"pageId"`
	URL    string        `json:"url"`
	Title  string        `json:"title"`
	Score  float64       `json:"score"`
	// HTML is the page itself — byte for byte what /page/{id} serves — on
	// a search asked with=pages, for every hit the request did not list in
	// have; absent otherwise.
	HTML string `json:"html,omitempty"`
}

// SearchResponse is the /api/v1/search payload.
type SearchResponse struct {
	Query string      `json:"query"`
	Seed  string      `json:"seed,omitempty"`
	Hits  []SearchHit `json:"hits"`
	// Partial is set by a cluster coordinator when one or more partitions
	// had no reachable owner before the per-node deadline: the hits are a
	// correct ranking of the partitions that answered, flagged rather
	// than silently passed off as the full corpus ranking.
	Partial bool `json:"partial,omitempty"`
}

// EntityInfo is one row of the /api/v1/entities payload.
type EntityInfo struct {
	ID        corpus.EntityID `json:"id"`
	Name      string          `json:"name"`
	SeedQuery string          `json:"seedQuery"`
}

// Server serves one retrieval backend over HTTP. Construct with NewServer
// (one process's corpus, read-only or writable), NewNodeServer (one node's
// partitions of a cluster) or NewCoordinatorServer (scatter-gather over a
// cluster), then Start/Shutdown (or mount Handler on your own server).
// Server is safe for concurrent requests.
type Server struct {
	// backend is what every handler serves from (see backend.go).
	backend backend

	// Log receives one line per request when non-nil.
	Log *log.Logger
	// MaxInFlight sizes the one admission gate every request but /healthz
	// passes (probes must see an overloaded server as alive). Unset (0), the
	// gate holds 64 requests and a request past them waits for a slot (503
	// if its caller leaves first). Set to N, a request past N is shed at
	// once with 429 and the retryable error envelope instead of queueing,
	// and N also bounds the jobs the shared harvest scheduler runs at once,
	// so admission and job concurrency degrade together. Set it before the
	// first request; later changes are ignored.
	MaxInFlight int
	// Harvest, when non-nil, enables the jobs API (POST/GET/DELETE
	// /api/v1/jobs): server-side pipelined sessions with streamed progress.
	// Only a NewServer server runs them; a node or coordinator server
	// answers the jobs routes 501 either way.
	Harvest *harvest.Backend

	// inflight is the admission gate, sized once from MaxInFlight; shed
	// counts requests rejected at it.
	inflightOnce sync.Once
	inflight     chan struct{}
	shed         atomic.Int64

	http *http.Server

	// jobs is the registry of harvest jobs and of the one scheduler they
	// share, made on first use (harvestJobs) and closed by Shutdown.
	jobsOnce sync.Once
	jobs     *harvest.Jobs

	// frames is the memo of compressed response frames behind respond and
	// handlePage (wire.go).
	frames *frameMemo

	// requests counts every request served (the /api/v1/metrics counter).
	requests atomic.Int64
	// pagesAttached and pagesSkippedHave count, over searches asked
	// with=pages, the hit pages sent inside the search response and the
	// ones left out because the request's have list named them.
	pagesAttached    atomic.Int64
	pagesSkippedHave atomic.Int64

	// ctx is canceled by Shutdown so jobs and the long-lived handlers
	// streaming their events terminate and let the graceful drain finish.
	ctx    context.Context
	cancel context.CancelFunc
}

// newServer wires a server over the backend a constructor chose.
func newServer(b backend) *Server {
	//l2qvet:ignore ctxbg server-lifetime root: this ctx outlives every request and is canceled by Shutdown's drain
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{backend: b, frames: newFrameMemo(), ctx: ctx, cancel: cancel}
}

// NewServer wires a single-node server over a corpus and the live engine
// that indexes it; every retrieval endpoint serves from the engine's
// current epoch view. A nil tok makes the server read-only: POST
// /api/v1/ingest answers 501 and /api/v1/metrics has no live section. A
// non-nil tok makes it writable: ingest grows corpus and engine, and
// ingested paragraph text is tokenized server-side with tok, which must be
// the tokenizer that produced the corpus tokens — that is what keeps a
// grown index byte-identical in rankings to a frozen rebuild.
func NewServer(c *corpus.Corpus, eng *search.LiveEngine, tok *textproc.Tokenizer) *Server {
	pages := make(map[corpus.PageID]*corpus.Page, c.NumPages())
	for _, p := range c.Pages {
		pages[p.ID] = p
	}
	return newServer(&localBackend{corpus: c, byID: pages, live: eng, tok: tok})
}

// writeTimeout bounds response writes. It is applied per request (and, on
// the event streams, rolled forward per event) instead of as a
// server-wide WriteTimeout, which would sever streams that outlive one
// fixed deadline. Route-specific treatment (streams exempt, everything
// else bounded) lives in the route registry — see routes.go.
const writeTimeout = 30 * time.Second

// defaultMaxInFlight is the admission gate's size when MaxInFlight is
// unset.
const defaultMaxInFlight = 64

// inflightSem returns the admission gate, sized once from MaxInFlight on
// first use; the once-guard makes concurrent Handler() calls race-free.
func (s *Server) inflightSem() chan struct{} {
	s.inflightOnce.Do(func() {
		n := s.MaxInFlight
		if n <= 0 {
			n = defaultMaxInFlight
		}
		s.inflight = make(chan struct{}, n)
	})
	return s.inflight
}

// limit passes every request but /healthz through the admission gate and
// logs it. Per-route write deadlines are applied by instrument() from the
// route registry.
func (s *Server) limit(next http.Handler) http.Handler {
	gate, shedding := s.inflightSem(), s.MaxInFlight > 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			if !s.admit(w, r, gate, shedding) {
				return
			}
			defer func() { <-gate }()
		}
		s.requests.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r)
		if s.Log != nil {
			s.Log.Printf("%s %s %s", r.Method, r.URL.RequestURI(), time.Since(start))
		}
	})
}

// admit takes a gate slot for r, or answers r itself and reports false:
// shedding (MaxInFlight set), a full gate sheds at once — the client's
// retry, the envelope being retryable, is cheaper than a convoy here;
// otherwise r waits for a slot for as long as its caller does.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, gate chan struct{}, shedding bool) bool {
	if shedding {
		select {
		case gate <- struct{}{}:
			return true
		default:
			s.shed.Add(1)
			writeError(w, http.StatusTooManyRequests, "server at max in-flight requests")
			return false
		}
	}
	select {
	case gate <- struct{}{}:
		return true
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "canceled while waiting for a concurrency slot")
		return false
	}
}

// Start begins listening on addr (e.g. "127.0.0.1:8080"; ":0" picks a free
// port) and serves until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("webapi: listen %s: %w", addr, err)
	}
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// No server-wide WriteTimeout: a job's event stream runs for as
		// long as the job does. instrument applies a per-request write
		// deadline to every other request, and the stream handler rolls
		// its own deadline forward per event.
		IdleTimeout: 60 * time.Second,
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed && s.Log != nil {
			s.Log.Printf("webapi: serve: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown cancels the running jobs and the handlers streaming their
// events, drains the rest, stops the server, and returns once the shared
// harvest scheduler has stopped and every job has ended.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	// Every job's context descends from s.ctx, so the jobs are already
	// aborting.
	s.harvestJobs().Close()
	return err
}

// ServerMetrics is the GET /api/v1/metrics payload: server-side counters
// mirroring what ClientMetrics reports client-side.
type ServerMetrics struct {
	// Requests counts every HTTP request served since start.
	Requests int64 `json:"requests"`
	// InFlight is the number of requests currently holding an admission
	// gate slot.
	InFlight int `json:"inFlight"`
	// Shed counts requests rejected 429 by admission control (MaxInFlight);
	// MaxInFlight echoes the configured bound (0 = unset: requests queue).
	Shed        int64 `json:"shed"`
	MaxInFlight int   `json:"maxInFlight,omitempty"`
	// Search reports what the search route saved its clients — pages sent
	// inside search responses (each one a /page request not made), pages
	// withheld because the client said it holds them — and what answering
	// cost the engine behind it: query-cache traffic and the scoring
	// passes' work.
	Search SearchRouteMetrics `json:"search"`
	// Runtime reports the process-health gauges (heap in use, GC pause
	// tail, goroutines, cumulative allocations) so a load driver can
	// correlate latency with GC and derive server-side allocs/request.
	Runtime RuntimeMetrics `json:"runtime"`
	// Jobs counts the async jobs registry by state.
	Jobs map[string]int `json:"jobs,omitempty"`
	// Scheduler snapshots the shared harvest scheduler (queue depth,
	// active/parked jobs, unspent adaptive budget), its counters all zero
	// before the first job.
	Scheduler pipeline.Stats `json:"scheduler"`
	// Cluster reports the coordinator's fan-out gauges (per-node in-flight,
	// hedges fired, partials served); present only on coordinator servers.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
	// Frames reports the memo of compressed response frames: a hit is a
	// framed response served without deflating it again, a miss one
	// deflated (from compressMin bytes up; smaller frames bypass it), and
	// Entries and Bytes what the memo holds now (≤ 4 096 frames of ≤ 4 KiB).
	Frames CacheMetrics `json:"frames"`
	// Live reports the generational engine's ingest-side gauges (segment
	// count, memtable size, epoch, compaction totals, cache epoch-
	// invalidations); present only on writable single-node servers.
	Live *search.LiveMetrics `json:"live,omitempty"`
}

// SearchRouteMetrics is the search route's section of ServerMetrics. All
// four engine counters are lifetime totals of this process.
type SearchRouteMetrics struct {
	PagesAttached    int64 `json:"pages_attached"`
	PagesSkippedHave int64 `json:"pages_skipped_have"`
	// CacheHits and CacheMisses count lookups in the cache that answers
	// repeated searches: the engine's query cache on a single-node server,
	// the front result cache on a coordinator (the same numbers as
	// cluster.frontCache), zeroes on a node, whose engines run uncached.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// DocsVisited counts the documents the scoring passes assembled a
	// term-frequency vector for — all of which reach the contender test —
	// and DocsScored those that went on to be scored exactly, logarithms
	// and all (DocsScored ≤ DocsVisited). Their ratio is what the
	// contender test saves; visited per miss is what the pass's early stop
	// leaves. A node sums its partition engines; a coordinator scores
	// nothing and omits both (its nodes report them).
	DocsVisited uint64 `json:"docs_visited,omitempty"`
	DocsScored  uint64 `json:"docs_scored,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := ServerMetrics{
		Requests:    s.requests.Load(),
		InFlight:    len(s.inflightSem()),
		Shed:        s.shed.Load(),
		MaxInFlight: s.MaxInFlight,
		Search: SearchRouteMetrics{
			PagesAttached:    s.pagesAttached.Load(),
			PagesSkippedHave: s.pagesSkippedHave.Load(),
		},
		Frames:  s.frames.metrics(),
		Runtime: readRuntimeMetrics(),
	}
	m.Jobs = s.harvestJobs().Counts()
	m.Scheduler = s.harvestJobs().SchedulerStats()
	s.backend.metrics(&m)
	writeJSON(w, m)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Stats()
	s.respond(w, r, wireStats, func(e *store.Enc) { encodeStatsWire(e, st) }, st)
}

// searchParams decodes the q, seed and k parameters of a search request,
// answering 400 itself (ok false) when they are unusable. q and seed
// carry one token per repeated parameter value, never a space-joined
// string: the tokenizer emits phrase tokens ("data mining" is ONE
// vocabulary term), and a space split would shatter those into
// out-of-vocabulary words and silently change every Dirichlet score.
// k is 0 when absent.
func searchParams(w http.ResponseWriter, qv url.Values) (seed, query []textproc.Token, k int, ok bool) {
	seed, query = nonEmpty(qv["seed"]), nonEmpty(qv["q"])
	if len(query) == 0 && len(seed) == 0 {
		// A seed-only (or q-only) search is valid; only both-empty is not.
		writeError(w, http.StatusBadRequest, "missing query: provide q and/or seed")
		return nil, nil, 0, false
	}
	if kStr := qv.Get("k"); kStr != "" {
		var err error
		if k, err = strconv.Atoi(kStr); err != nil || k <= 0 || k > 100 {
			writeError(w, http.StatusBadRequest, "bad k parameter")
			return nil, nil, 0, false
		}
	}
	return seed, query, k, true
}

// nonEmpty drops empty parameter values.
func nonEmpty(vals []string) []textproc.Token {
	toks := make([]textproc.Token, 0, len(vals))
	for _, v := range vals {
		if v != "" {
			toks = append(toks, v)
		}
	}
	return toks
}

// newSearchResponse is the wire form of a ranked result list.
func newSearchResponse(seed, query []textproc.Token, res []search.Result) SearchResponse {
	resp := SearchResponse{Query: textproc.JoinQuery(query), Seed: textproc.JoinQuery(seed), Hits: make([]SearchHit, 0, len(res))}
	for _, h := range res {
		resp.Hits = append(resp.Hits, SearchHit{
			PageID: h.Page.ID, URL: h.Page.URL, Title: h.Page.Title, Score: h.Score,
		})
	}
	return resp
}

// maxHave caps the have list of a with=pages search, on both ends: the
// client names at most this many cached pages (the newest), the server
// refuses a longer list. A constant, not an option — it bounds the request
// line and the per-hit scan below, a page left off the list only travels
// again, and a budget-5 harvest never holds more than 30 pages.
const maxHave = 64

// pagesParams decodes the with and have parameters of a search request,
// answering 400 itself (ok false) when they are unusable. with=pages asks
// for the hits' pages inside the response; have is one comma-separated
// list of decimal page IDs the client already holds.
func pagesParams(w http.ResponseWriter, qv url.Values) (withPages bool, have []corpus.PageID, ok bool) {
	if with, present := qv["with"]; present {
		if len(with) != 1 || with[0] != "pages" {
			writeError(w, http.StatusBadRequest, "bad with parameter: only with=pages is supported")
			return false, nil, false
		}
		withPages = true
	}
	lists, present := qv["have"]
	if !present {
		return withPages, nil, true
	}
	if !withPages || len(lists) != 1 {
		writeError(w, http.StatusBadRequest, "bad have parameter: one list, and only on a with=pages search")
		return false, nil, false
	}
	have, ok = idList(w, "have", lists[0])
	return true, have, ok
}

// idList decodes one comma-separated list of at most maxHave decimal page
// IDs — a search's have, or the ids of a node's batch of pages (the
// coordinator splits a longer hit list) — answering 400 itself (ok false)
// otherwise.
func idList(w http.ResponseWriter, param, list string) (ids []corpus.PageID, ok bool) {
	for more := list != ""; more; {
		var field string
		field, list, more = strings.Cut(list, ",")
		id, err := strconv.ParseUint(field, 10, strconv.IntSize-1)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad "+param+" parameter: want comma-separated page IDs")
			return nil, false
		}
		if len(ids) == maxHave {
			writeError(w, http.StatusBadRequest, "bad "+param+" parameter: more than "+strconv.Itoa(maxHave)+" page IDs")
			return nil, false
		}
		ids = append(ids, corpus.PageID(id))
	}
	return ids, true
}

// handleSearch answers one seeded search. A coordinator's partial result
// (some partitions had no live owner) is served flagged, not errored: the
// flag is the reader's to act on (Client.Retrieve refuses it, ErrPartial);
// only a total outage or a dead caller errors. Asked with=pages, the response also carries the pages of its
// hits (attachPages), so a harvest step is one round trip.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	seed, query, k, ok := searchParams(w, qv)
	if !ok {
		return
	}
	withPages, have, ok := pagesParams(w, qv)
	if !ok {
		return
	}
	resp, err := s.backend.search(r.Context(), seed, query, k)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	if !withPages {
		s.respond(w, r, wireSearch, func(e *store.Enc) { encodeSearchWire(e, resp) }, resp)
		return
	}
	if err := s.attachPages(r.Context(), resp.Hits, have); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	s.respond(w, r, wireSearchPages, func(e *store.Enc) { encodeSearchPagesWire(e, resp) }, resp)
}

// attachPages hangs on every hit not named in have the bytes /page/{id}
// would serve for it — the one attach step behind both encodings and every
// backend, in one call. A page the backend cannot produce fails the whole
// request with that error: a hit silently left without its body would be
// indistinguishable from one the client asked to skip.
func (s *Server) attachPages(ctx context.Context, hits []SearchHit, have []corpus.PageID) error {
	ids := make([]corpus.PageID, 0, len(hits))
	for _, h := range hits {
		if !slices.Contains(have, h.PageID) {
			ids = append(ids, h.PageID)
		}
	}
	bodies := make([]string, len(ids))
	if err := s.backend.pages(ctx, ids, bodies); err != nil {
		return err
	}
	for i, j := 0, 0; j < len(ids); i++ { // ids is hits minus have, in order
		if hits[i].PageID == ids[j] {
			hits[i].HTML = bodies[j]
			j++
		}
	}
	s.pagesAttached.Add(int64(len(ids)))
	s.pagesSkippedHave.Add(int64(len(hits) - len(ids)))
	return nil
}

// handleEntities answers JSON whatever Accept says: the entity list is read
// once per dial, not per step (wire kind 5 is retired).
func (s *Server) handleEntities(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.backend.entities())
}

// handlePage serves one corpus page at /page/{id} where {id} is
// "<n>.html" (the canonical html.PageHref form) or a bare numeric ID —
// as raw HTML by default, or as a wire frame carrying the identical
// bytes (gzipped from compressMin up) when negotiated. This is the route a
// crawler, a browser or a client of an older release downloads pages
// from; a harvesting Client gets the same bytes inside its search
// responses (attachPages) and comes here only for a page one of those did
// not carry. Page bodies are the serving boundary's dominant transfer
// cost either way, which is why they are the payload the compression
// threshold is aimed at.
func (s *Server) handlePage(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	raw = strings.TrimSuffix(raw, ".html")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad page id")
		return
	}
	var body [1]string
	if err := s.backend.pages(r.Context(), []corpus.PageID{corpus.PageID(id)}, body[:]); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	if wantsWire(r) {
		writeFrame(w, s.frame(wirePage, func(e *store.Enc) { e.Raw([]byte(body[0])) }))
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, body[0])
}

// errorStatus maps a backend failure to its serving-surface status: an
// httpError carries its own, a page whose owning nodes all 404 it stays a
// 404, and everything else — canceled requests, whole-cluster outages —
// is a retryable 503.
func errorStatus(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	var te *TransportError
	if errors.As(err, &te) && te.Status == http.StatusNotFound {
		return http.StatusNotFound
	}
	return http.StatusServiceUnavailable
}
