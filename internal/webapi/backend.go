package webapi

// The one retrieval backend behind a Server. Handlers, the harvest job
// builder and the metrics endpoint call it blind: whether pages come from
// a frozen index, a live generational engine or a cluster of nodes is the
// backend's business, decided once by the constructor that installed it
// (NewServer, NewLiveServer, NewNodeServer, NewCoordinatorServer). Frozen
// and live share localBackend — *search.Engine and *search.LiveEngine
// offer the same k-parameterised search and statistic reads — and differ
// only in ingest and the live gauges; a cluster node's backend is its
// ClusterNode (cluster.go), the coordinator's is clusterBackend
// (coordinator.go).

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// backend is everything a Server needs from what it serves. Failures
// carry their HTTP status (see errorStatus).
type backend interface {
	stats() Stats
	// search ranks seed ∥ query and returns the top k hits (k ≤ 0: the
	// backend's configured top-k) without touching page bodies.
	search(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error)
	entities() []EntityInfo
	// entity resolves a harvest target; nil when the ID is unknown.
	entity(id corpus.EntityID) *corpus.Entity
	// page returns the bytes /page/{id} serves for id — what a search asked
	// with=pages attaches to a hit, byte for byte. Backends that hold the
	// page render it; a coordinator passes on what the owning node rendered.
	page(ctx context.Context, id corpus.PageID) (string, error)
	// pageWorkers is how many page calls for one hit list are worth
	// running at once: 1 when pages are in memory, the prefetch fan-out
	// when a page may cost a round trip to its owning node.
	pageWorkers() int
	// retriever is what server-side harvest sessions search through.
	retriever() core.Retriever
	// metrics fills in the backend's section of the metrics payload.
	metrics(m *ServerMetrics)
	// ingest is optional: a backend that cannot grow answers 501.
	ingest(req IngestRequest) (IngestResponse, error)
}

// errNoIngest is the ingest answer of every backend but the live one.
var errNoIngest = httpErrorf(http.StatusNotImplemented, "ingest not supported: server is not live (start with -live)")

// localEngine is what localBackend needs of the engine it serves from.
type localEngine interface {
	core.Retriever
	SearchWithSeedTopKAppend(dst []search.Result, k int, seed, query []textproc.Token) []search.Result
	NumTerms() int
	TotalTokens() int
	Mu() float64
	CacheStats() (hits, misses uint64)
	PassStats() (visited, scored uint64)
}

// localBackend serves one in-process corpus and engine. A frozen corpus
// and engine are immutable; under liveBackend, ingest grows corpus and
// pages behind mu while searches run lock-free against the live engine's
// epoch views.
type localBackend struct {
	mu     sync.RWMutex
	corpus *corpus.Corpus
	pages  map[corpus.PageID]*corpus.Page
	engine localEngine
}

func newLocalBackend(c *corpus.Corpus, engine localEngine) *localBackend {
	pages := make(map[corpus.PageID]*corpus.Page, c.NumPages())
	for _, p := range c.Pages {
		pages[p.ID] = p
	}
	return &localBackend{corpus: c, pages: pages, engine: engine}
}

func (b *localBackend) stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return Stats{
		Domain:      string(b.corpus.Domain),
		NumEntities: b.corpus.NumEntities(),
		NumPages:    b.corpus.NumPages(),
		NumTerms:    b.engine.NumTerms(),
		TotalTokens: b.engine.TotalTokens(),
		Mu:          b.engine.Mu(),
		TopK:        b.engine.TopK(),
	}
}

func (b *localBackend) search(_ context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	return newSearchResponse(seed, query, b.engine.SearchWithSeedTopKAppend(nil, k, seed, query)), nil
}

func (b *localBackend) entities() []EntityInfo {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return entityInfos(b.corpus.Entities)
}

// entityInfos is the /api/v1/entities form of an entity table.
func entityInfos(ents []*corpus.Entity) []EntityInfo {
	out := make([]EntityInfo, 0, len(ents))
	for _, e := range ents {
		out = append(out, EntityInfo{ID: e.ID, Name: e.Name, SeedQuery: e.SeedQuery})
	}
	return out
}

func (b *localBackend) entity(id corpus.EntityID) *corpus.Entity {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.corpus.Entity(id)
}

func (b *localBackend) page(_ context.Context, id corpus.PageID) (string, error) {
	b.mu.RLock()
	p, ok := b.pages[id]
	b.mu.RUnlock()
	if !ok {
		return "", httpErrorf(http.StatusNotFound, "no such page")
	}
	return html.RenderPage(p), nil
}

func (b *localBackend) pageWorkers() int { return 1 }

func (b *localBackend) retriever() core.Retriever { return b.engine }

func (b *localBackend) metrics(m *ServerMetrics) {
	m.Search.CacheHits, m.Search.CacheMisses = b.engine.CacheStats()
	m.Search.DocsVisited, m.Search.DocsScored = b.engine.PassStats()
}

func (b *localBackend) ingest(IngestRequest) (IngestResponse, error) {
	return IngestResponse{}, errNoIngest
}

// liveBackend is localBackend over a generational engine, plus the write
// path (ingest.go) and the live gauges.
type liveBackend struct {
	*localBackend
	live *search.LiveEngine
	// tok tokenizes ingested paragraph text server-side, so ingested
	// pages carry exactly the tokens the corpus tokenizer would have
	// produced (the parity contract through the API).
	tok *textproc.Tokenizer
}

func (b *liveBackend) metrics(m *ServerMetrics) {
	b.localBackend.metrics(m)
	lm := b.live.Metrics()
	m.Live = &lm
}

// httpError is a user-facing failure with the HTTP status it maps to.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}
