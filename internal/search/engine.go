package search

import (
	"context"
	"math"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// DefaultMu is the fallback Dirichlet smoothing parameter μ. Zhai &
// Lafferty (SIGIR 2001, the paper's reference [29]) recommend μ around the
// collection's document scale; 2000 suits long web documents. NewEngine
// auto-scales μ to twice the mean document length (clamped to
// [MinMu, DefaultMu]) because over-smoothing short documents erases the
// query-term signal entirely — the document model's weight is
// |d|/(|d|+μ), which at |d|=150 and μ=2000 leaves the query terms only 7%
// influence and makes retrieval insensitive to the query.
const DefaultMu = 2000.0

// MinMu is the lower clamp for the auto-scaled μ.
const MinMu = 100.0

// DefaultTopK is the number of results per query (paper: top 5, §VI-A).
const DefaultTopK = 5

// Result is one ranked retrieval hit.
type Result struct {
	Page  *corpus.Page
	Score float64 // log query-likelihood; higher is better
}

// segment is one immutable run of a view's collection: an ordinary Index
// over a contiguous run of pages plus the global ordinal of its first
// document. A frozen engine has one, at base 0; a live view has the sealed
// generations and, at the tail, the memtable (live.go).
type segment struct {
	idx  *Index
	base int64 // global ordinal of idx.Doc(0)
}

func (s segment) end() int64 { return s.base + int64(s.idx.NumDocs()) }

// Engine ranks indexed pages by Dirichlet-smoothed query likelihood:
//
//	score(q,d) = Σ_{t∈q} log( (tf(t,d) + μ·p(t|C)) / (|d| + μ) )
//
// Documents containing none of the query terms are not returned. One
// exact max-score pass scores only the documents that can still enter the
// fixed-size top-K heap (scorer.go); a query cache (cache.go, S3-FIFO)
// short-circuits repeated queries (selector candidate evaluation and
// re-harvests fire the same queries again and again). Both are
// ranking-neutral — see SearchReference.
//
// An Engine is one immutable, searchable view of a collection: segments,
// the statistics they are scored under, μ, top-k and an epoch. NewEngine
// makes the view that never publishes again — one segment, epoch 0; a
// LiveEngine publishes a new one per mutation (LiveEngine.View); a cluster
// partition is a one-segment view rebased by WithCollectionStats. It holds
// no lock, so the With* methods copy it by value. The zero value is not
// usable; an Engine is safe for concurrent use.
type Engine struct {
	segs []segment
	mu   float64
	topK int

	// stats, when non-nil, is what the scoring reads collection-level
	// statistics from instead of the single segment's own index: the whole
	// corpus for a cluster partition (WithCollectionStats), every segment
	// for a live view.
	stats StatSource

	// epoch leads every cache key. The views a LiveEngine publishes share
	// one cache, so a publish invalidates by bumping an integer: stale
	// entries stop matching and are evicted as new ones arrive. A frozen
	// engine stays at 0 and its entries never go stale.
	epoch uint64
	cache *Cache[[]Result]

	// pass counts the scoring passes' work (PassStats). Copies share it,
	// and so do the views of one LiveEngine.
	pass *passCounters
}

// NewEngine creates an engine over idx with auto-scaled μ (see DefaultMu),
// DefaultTopK, and the default query cache.
func NewEngine(idx *Index) *Engine {
	return NewEngineOpts(idx, Options{})
}

// NewEngineOpts is NewEngine with an explicit cache setting.
func NewEngineOpts(idx *Index, opts Options) *Engine {
	return &Engine{
		segs:  []segment{{idx: idx}},
		mu:    AutoMu(idx.NumDocs(), idx.TotalTokens()),
		topK:  DefaultTopK,
		cache: NewCache[[]Result](opts.Capacity()),
		pass:  new(passCounters),
	}
}

// AutoMu is the NewEngine μ formula: twice the mean document length of a
// collection with numDocs documents and totalTokens tokens, clamped to
// [MinMu, DefaultMu] (numDocs ≤ 0 yields DefaultMu). Exported so a cluster
// coordinator can derive the same μ from aggregated global statistics that
// a single-node engine would derive from the whole index.
func AutoMu(numDocs, totalTokens int) float64 {
	if numDocs <= 0 {
		return DefaultMu
	}
	mu := 2 * float64(totalTokens) / float64(numDocs)
	if mu < MinMu {
		mu = MinMu
	}
	if mu > DefaultMu {
		mu = DefaultMu
	}
	return mu
}

// Mu returns the engine's Dirichlet smoothing parameter.
func (e *Engine) Mu() float64 { return e.mu }

// WithMu returns a copy of the engine using the given Dirichlet μ.
func (e *Engine) WithMu(mu float64) *Engine {
	cp := *e
	cp.mu = mu
	cp.cache = e.cache.fresh()
	return &cp
}

// WithTopK returns a copy of the engine returning k results per query.
func (e *Engine) WithTopK(k int) *Engine {
	cp := *e
	cp.topK = k
	cp.cache = e.cache.fresh()
	return &cp
}

// WithCache returns a copy of the engine with a fresh query cache of
// the given capacity; size ≤ 0 disables caching.
func (e *Engine) WithCache(size int) *Engine {
	cp := *e
	cp.cache = NewCache[[]Result](size)
	return &cp
}

// Index returns the view's first segment: the whole collection for a
// frozen engine, a partition or a live engine that has only its bootstrap
// segment; nil for a live view with nothing ingested yet.
func (e *Engine) Index() *Index {
	if len(e.segs) == 0 {
		return nil
	}
	return e.segs[0].idx
}

// Epoch is the view's publish count: 0 for a frozen engine; a live engine
// bumps it with every ingest, seal and compaction.
func (e *Engine) Epoch() uint64 { return e.epoch }

// NumDocs returns the number of documents the view holds.
func (e *Engine) NumDocs() int {
	n := 0
	for _, s := range e.segs {
		n += s.idx.NumDocs()
	}
	return n
}

// TopK returns the configured result-list size.
func (e *Engine) TopK() int { return e.topK }

// CacheStats reports the query cache's lifetime hit and miss counts
// (zeroes when the cache is disabled).
func (e *Engine) CacheStats() (hits, misses uint64) {
	hits, misses, _ = e.cache.Stats()
	return hits, misses
}

// PassStats reports the work of the engine's scoring passes (cache misses)
// since it was built, the engines derived from it included: the documents
// that reached the contender test and those of them scored exactly
// (scored ≤ visited; equal when the test cannot run — see contenderSlack).
func (e *Engine) PassStats() (visited, scored uint64) {
	return e.pass.visited.Load(), e.pass.scored.Load()
}

// CollectionProb is the smoothed collection model p(t|C) with add-one
// smoothing so unseen terms keep scores finite. Exported so remote
// clients (internal/webapi) can reproduce the engine's scoring exactly
// from collection statistics.
func CollectionProb(collFreq, totalToks, numTerms int) float64 {
	return float64(collFreq+1) / float64(totalToks+numTerms+1)
}

// DirichletTermScore is the per-term Dirichlet-smoothed log-probability
// log((tf + μ·p(t|C)) / (dl + μ)).
func DirichletTermScore(tf, dl int, mu, pC float64) float64 {
	return math.Log((float64(tf) + mu*pC) / (float64(dl) + mu))
}

// StatSource supplies the collection-level statistics the scoring reads —
// the three inputs of p(t|C) (CollectionProb) — everything beyond
// per-document state (term frequencies, document lengths, which always
// come from the engine's own index). Implemented by
// *CollectionStats (a materialized snapshot, the cluster exchange form)
// and by the live engine's view statistics (computed over its segments, so
// no O(vocabulary) snapshot is rebuilt per ingest).
type StatSource interface {
	StatCollFreq(t textproc.Token) int
	StatTotalTokens() int
	StatNumTerms() int
}

// Collection-level statistic reads, routed through stats when set and the
// single segment's own index otherwise. Every scoring path reads these —
// never index fields directly — so one source covers the pruned pass, the
// merge and the reference path at once.

func (e *Engine) CollectionFreq(t textproc.Token) int {
	if e.stats != nil {
		return e.stats.StatCollFreq(t)
	}
	return e.segs[0].idx.CollectionFreq(t)
}

func (e *Engine) TotalTokens() int {
	if e.stats != nil {
		return e.stats.StatTotalTokens()
	}
	return e.segs[0].idx.totalToks
}

func (e *Engine) NumTerms() int {
	if e.stats != nil {
		return e.stats.StatNumTerms()
	}
	return e.segs[0].idx.NumTerms()
}

// collProb applies CollectionProb to the engine's collection statistics.
func (e *Engine) collProb(t textproc.Token) float64 {
	return CollectionProb(e.CollectionFreq(t), e.TotalTokens(), e.NumTerms())
}

// SearchWithSeed returns the top-k pages for seed ∥ query. The paper
// appends the seed query to every subsequent query "in order to focus on
// the target entity" (§I "Input"); a nil seed searches query alone. Ties
// are broken by document order for determinism, and an empty seed ∥ query
// returns nil. Results are identical to SearchReference over seed ∥ query;
// the cache, the pruning and the top-K heap only change how fast they are
// produced.
func (e *Engine) SearchWithSeed(seed, query []textproc.Token) []Result {
	return e.SearchWithSeedAppend(nil, seed, query)
}

// SearchWithSeedAppend is SearchWithSeed with a caller-provided result
// buffer: the top-k hits are appended to dst and the grown slice returned.
// The seed ∥ query concatenation and all scoring state are pooled and the
// cache is probed with a pooled byte key, so with a reused dst a cache hit
// costs zero allocations and a miss allocates only the cache's canonical
// copy (plus any dst growth). Safe for concurrent use — scratch is
// per-call, never shared.
func (e *Engine) SearchWithSeedAppend(dst []Result, seed, query []textproc.Token) []Result {
	return e.SearchWithSeedTopKAppend(dst, 0, seed, query)
}

// seedQueryBuf is the pooled seed∥query concatenation buffer of one
// search (token slices hold only string headers).
type seedQueryBuf struct{ toks []textproc.Token }

var seedQueryPool = sync.Pool{New: func() any { return new(seedQueryBuf) }}

// SearchWithSeedTopKAppend is SearchWithSeedAppend with an explicit
// result-list size (k ≤ 0 uses the configured TopK) — the per-request
// override the serving layer passes through.
func (e *Engine) SearchWithSeedTopKAppend(dst []Result, k int, seed, query []textproc.Token) []Result {
	sb := seedQueryPool.Get().(*seedQueryBuf)
	combined := append(append(sb.toks[:0], seed...), query...)
	dst = e.searchTopKAppend(dst, k, combined)
	sb.toks = combined
	seedQueryPool.Put(sb)
	return dst
}

// searchTopKAppend is the one cache probe in the package: the key carries
// the view's epoch and k, so every k, and every view of a live engine,
// share one cache.
func (e *Engine) searchTopKAppend(dst []Result, k int, query []textproc.Token) []Result {
	if len(query) == 0 {
		return dst
	}
	if k <= 0 {
		k = e.topK
	}
	if e.cache == nil {
		return e.searchMissAppend(dst, k, query)
	}
	kb := cacheKeyPool.Get().(*cacheKeyBuf)
	key := appendCacheKey(kb.b[:0], e.epoch, k, query)
	// The cache owns its result slices: a hit is copied into the caller's
	// buffer and a miss stores a copy, so callers keep mutating the slices
	// a search hands them (the pre-cache contract).
	res, hit := e.cache.Get(key)
	out := append(dst, res...)
	if !hit {
		out = e.searchMissAppend(dst, k, query)
		e.cache.Put(key, append([]Result(nil), out[len(dst):]...))
	}
	kb.b = key
	cacheKeyPool.Put(kb)
	return out
}

// Retrieve is the session retriever contract (core.Retriever): the top-k
// of seed ∥ query appended to dst. An in-process engine cannot fail, so
// the only error is a context already done when the search would start.
func (e *Engine) Retrieve(ctx context.Context, dst []Result, seed, query []textproc.Token) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.SearchWithSeedTopKAppend(dst, 0, seed, query), nil
}

// QueryLikelihood is the Dirichlet-smoothed log query likelihood of one
// page, Σ_{t∈q} log((tf(t,p) + μ·p(t|C)) / (|p| + μ)), computed from the
// page's own token histogram. An empty query scores -Inf.
func QueryLikelihood(p *corpus.Page, query []textproc.Token, mu float64, collProb func(textproc.Token) float64) float64 {
	if len(query) == 0 {
		return math.Inf(-1)
	}
	toks := p.Tokens()
	tf := make(map[textproc.Token]int, len(query))
	for _, t := range toks {
		tf[t]++ // full histogram; queries are short so this is fine
	}
	s := 0.0
	for _, t := range query {
		s += DirichletTermScore(tf[t], len(toks), mu, collProb(t))
	}
	return s
}

// QueryLikelihood scores one page against a query with the engine's
// smoothing. Nothing ranks with it: it is the per-document oracle the
// index scorer is tested against.
func (e *Engine) QueryLikelihood(p *corpus.Page, query []textproc.Token) float64 {
	return QueryLikelihood(p, query, e.mu, e.collProb)
}
