package webapi

// The one retrieval backend behind a Server. Handlers and the metrics
// endpoint call it blind: whether pages come from one process's index or a
// cluster of nodes is the backend's business, decided once by the
// constructor that installed it (NewServer, NewNodeServer,
// NewCoordinatorServer). A single-node server is a localBackend over a live
// engine, searched through the view it has published last, and written to
// only when NewServer was given the ingest tokenizer; a cluster node's
// backend is its ClusterNode (cluster.go), the coordinator's its
// Coordinator (coordinator.go). The jobs API and ingest alone are not
// blind: sessions run beside a localBackend's index and nowhere else, and
// only a writable localBackend grows.

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// backend is everything a Server needs from what it serves. Failures
// carry their HTTP status (see errorStatus).
type backend interface {
	Stats() Stats
	// search ranks seed ∥ query and returns the top k hits (k ≤ 0: the
	// backend's configured top-k) without touching page bodies.
	search(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error)
	entities() []EntityInfo
	// pages sets dst[i] to the bytes /page/{id} serves for ids[i] — what a
	// search asked with=pages attaches to a hit, byte for byte — or fails
	// whole. Backends that hold the pages render them; a coordinator passes
	// on what the owning nodes rendered.
	pages(ctx context.Context, ids []corpus.PageID, dst []string) error
	// metrics fills in the backend's section of the metrics payload.
	metrics(m *ServerMetrics)
}

// localBackend serves one in-process corpus through a live engine. Every
// request reads the engine's current view, asked for once, so what one
// response reports comes from one epoch. Read-only (tok nil): nothing
// publishes after boot. Writable: ingest (ingest.go) grows corpus and pages
// behind mu while searches run lock-free against the views the engine
// publishes.
type localBackend struct {
	mu     sync.RWMutex
	corpus *corpus.Corpus
	byID   map[corpus.PageID]*corpus.Page
	live   *search.LiveEngine
	// tok, when non-nil, makes the backend writable: it tokenizes ingested
	// paragraph text server-side, so ingested pages carry exactly the
	// tokens the corpus tokenizer would have produced (the parity contract
	// through the API).
	tok *textproc.Tokenizer
}

func (b *localBackend) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v := b.live.View()
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
	return newSearchResponse(seed, query, b.live.View().SearchWithSeedTopKAppend(nil, k, seed, query)), nil
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

// entity resolves a harvest target; nil when the ID is unknown.
func (b *localBackend) entity(id corpus.EntityID) *corpus.Entity {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.corpus.Entity(id)
}

func (b *localBackend) pages(_ context.Context, ids []corpus.PageID, dst []string) error {
	for i, id := range ids {
		b.mu.RLock()
		p, ok := b.byID[id]
		b.mu.RUnlock()
		if !ok {
			return httpErrorf(http.StatusNotFound, "no such page %d", id)
		}
		dst[i] = html.RenderPage(p)
	}
	return nil
}

func (b *localBackend) metrics(m *ServerMetrics) {
	v := b.live.View()
	m.Search.CacheHits, m.Search.CacheMisses = v.CacheStats()
	m.Search.DocsVisited, m.Search.DocsScored = v.PassStats()
	if b.tok != nil {
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
