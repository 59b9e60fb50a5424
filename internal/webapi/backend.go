package webapi

// The one retrieval backend behind a Server. Handlers, the harvest job
// builder and the metrics endpoint call it blind: whether pages come from
// a frozen index, a live generational engine or a cluster of nodes is the
// backend's business, decided once by the constructor that installed it
// (NewServer, NewLiveServer, NewNodeServer, NewCoordinatorServer). Frozen
// and live are one localBackend: both search a *search.Engine — the frozen
// one, or the view the live engine has published last — and a live one can
// also be written to; a cluster node's backend is its ClusterNode
// (cluster.go), the coordinator's is clusterBackend (coordinator.go).

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

// localBackend serves one in-process corpus. Frozen: corpus and engine are
// immutable and live is nil. Live: ingest (ingest.go) grows corpus and
// pages behind mu while searches run lock-free against the views the live
// engine publishes.
type localBackend struct {
	mu     sync.RWMutex
	corpus *corpus.Corpus
	pages  map[corpus.PageID]*corpus.Page
	frozen *search.Engine
	live   *search.LiveEngine
	// tok tokenizes ingested paragraph text server-side, so ingested
	// pages carry exactly the tokens the corpus tokenizer would have
	// produced (the parity contract through the API).
	tok *textproc.Tokenizer
}

func newLocalBackend(c *corpus.Corpus) *localBackend {
	pages := make(map[corpus.PageID]*corpus.Page, c.NumPages())
	for _, p := range c.Pages {
		pages[p.ID] = p
	}
	return &localBackend{corpus: c, pages: pages}
}

// view is the engine a request reads: asked for once per request, so what
// one response reports comes from one epoch.
func (b *localBackend) view() *search.Engine {
	if b.live != nil {
		return b.live.View()
	}
	return b.frozen
}

func (b *localBackend) stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v := b.view()
	return Stats{
		Domain:      string(b.corpus.Domain),
		NumEntities: b.corpus.NumEntities(),
		NumPages:    b.corpus.NumPages(),
		NumTerms:    v.NumTerms(),
		TotalTokens: v.TotalTokens(),
		Mu:          v.Mu(),
		TopK:        v.TopK(),
	}
}

func (b *localBackend) search(_ context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	return newSearchResponse(seed, query, b.view().SearchWithSeedTopKAppend(nil, k, seed, query)), nil
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

func (b *localBackend) retriever() core.Retriever {
	if b.live != nil {
		return b.live // follows the epochs
	}
	return b.frozen
}

func (b *localBackend) metrics(m *ServerMetrics) {
	v := b.view()
	m.Search.CacheHits, m.Search.CacheMisses = v.CacheStats()
	m.Search.DocsVisited, m.Search.DocsScored = v.PassStats()
	if b.live != nil {
		lm := b.live.Metrics()
		m.Live = &lm
	}
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
