package search

import (
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// The live generational engine: the frozen Index/Engine pair assumes a
// corpus fixed at build time, but the paper's workload is a harvester that
// feeds the very index it queries. LiveEngine keeps that machinery intact
// by composing it — new pages land in a small memtable segment (rebuilt
// serially per ingest batch), the memtable seals into an immutable segment
// (an ordinary Index, scored by the frozen engine's scorer verbatim), and a
// background compactor merges small adjacent segments into larger ones.
// Every query runs over a merged view: per-segment engines produce
// (global ordinal, score) pairs and MergeTopKAppend — the cluster
// scatter-gather merge — folds them into the global ranking, because a
// live engine is morally a local scatter-gather.
//
// Readers never lock. Each mutation publishes a fresh immutable view
// (segment list + snapshotted collection statistics + per-segment scoring
// engines) behind an atomic pointer; a query pins the view it loaded for
// its whole lifetime, so compaction can retire segments while searches
// still read them. Cache entries are keyed by the view epoch, making
// invalidation a free integer bump: stale entries simply stop matching
// and age out of the LRU.
//
// Differential parity is the contract: a live engine grown doc-by-doc —
// across any seal/compact schedule — ranks byte-identically to a frozen
// engine rebuilt from the final page set. Per-document scores depend only
// on per-doc term frequencies and document length (identical in any
// segment layout) and on collection totals (snapshotted globally per
// view), ties break on the global ingest ordinal (the rebuilt index's
// document ordinal), and every segment contributes its full local top-k,
// so the merged top-k equals the frozen top-k exactly.

// DefaultMemtableDocs is the seal threshold when LiveOptions.MemtableDocs
// is 0: small enough that the serial per-ingest memtable rebuild stays
// cheap, large enough that sealed segments amortize the merge fan-in.
const DefaultMemtableDocs = 128

// DefaultCompactFanIn is the compaction fan-in when LiveOptions.
// CompactFanIn is 0: merging 4 same-tier neighbors keeps the segment
// count at O(fanIn · log(n/memtable)) under steady ingestion.
const DefaultCompactFanIn = 4

// LiveOptions tunes the generational lifecycle of a LiveEngine. The zero
// value means "all defaults"; every field has an explicit opt-out.
type LiveOptions struct {
	// MemtableDocs is the memtable seal threshold in documents. 0 picks
	// DefaultMemtableDocs; values are clamped to ≥ 1 (1 seals every
	// document into its own segment — the compaction stress mode).
	MemtableDocs int
	// CompactFanIn is how many adjacent same-tier sealed segments the
	// background compactor merges at once. 0 picks DefaultCompactFanIn;
	// positive values are clamped to ≥ 2. Negative disables background
	// compaction; explicit Compact calls still merge with fan-in
	// |CompactFanIn| (-1 keeps the default fan-in) — the deterministic-
	// schedule mode parity tests drive.
	CompactFanIn int
	// IngestWorkers bounds the goroutines that pre-tokenize incoming
	// pages before the writer lock is taken. 0 picks GOMAXPROCS; 1
	// tokenizes serially.
	IngestWorkers int
	// TopK is the result-list size per query. 0 picks DefaultTopK.
	TopK int
}

// withDefaults resolves zero fields to their defaults and clamps ranges.
func (o LiveOptions) withDefaults() LiveOptions {
	if o.MemtableDocs == 0 {
		o.MemtableDocs = DefaultMemtableDocs
	}
	if o.MemtableDocs < 1 {
		o.MemtableDocs = 1
	}
	if o.CompactFanIn == 0 {
		o.CompactFanIn = DefaultCompactFanIn
	}
	if o.CompactFanIn > 0 && o.CompactFanIn < 2 {
		o.CompactFanIn = 2
	}
	if o.IngestWorkers == 0 {
		o.IngestWorkers = runtime.GOMAXPROCS(0)
	}
	if o.IngestWorkers < 1 {
		o.IngestWorkers = 1
	}
	if o.TopK == 0 {
		o.TopK = DefaultTopK
	}
	return o
}

// liveSegment is one immutable generation: an ordinary Index over a
// contiguous run of ingested pages plus the global ingest ordinal of its
// first document. Segments are never mutated once they enter a view;
// compaction replaces adjacent runs with a merged rebuild.
type liveSegment struct {
	idx  *Index
	base int64 // global ordinal of idx.Doc(0)
}

func (s *liveSegment) end() int64 { return s.base + int64(s.idx.NumDocs()) }

// liveStats is the per-view StatSource: collection totals are ints
// snapshotted at publish (the writer maintains them incrementally), while
// per-term frequencies are summed across the view's immutable segment
// indexes on demand — O(segments) map probes per query token, hoisted
// once per query by the scoring constants, instead of an O(vocabulary)
// stats rebuild per ingest.
type liveStats struct {
	segs      []*liveSegment
	numDocs   int
	totalToks int
	numTerms  int
}

func (st *liveStats) StatCollFreq(t textproc.Token) int {
	n := 0
	for _, s := range st.segs {
		n += s.idx.CollectionFreq(t)
	}
	return n
}

// collProb is the view's smoothed collection model p(t|C).
func (st *liveStats) collProb(t textproc.Token) float64 {
	return CollectionProb(st.StatCollFreq(t), st.totalToks, st.numTerms)
}

func (st *liveStats) StatTotalTokens() int { return st.totalToks }
func (st *liveStats) StatNumTerms() int    { return st.numTerms }

// liveView is one published epoch: the sealed segments plus (when
// non-empty) the memtable segment at the tail, each paired with an Engine
// that scores it against the view-global statistics and μ. A view is
// immutable after publish; readers load it atomically and use it lock-free
// for the whole query.
type liveView struct {
	epoch   uint64
	segs    []*liveSegment
	engines []*Engine // engines[i] scores segs[i] with the view's stats
	stats   *liveStats
	mu      float64
	memDocs int // docs still in the unsealed memtable segment
}

// pageAt maps a global ordinal back to its page via the segment bases
// (segments are few; scan from the tail, where the hot memtable lives).
func (v *liveView) pageAt(doc int64) *corpus.Page {
	for i := len(v.segs) - 1; i >= 0; i-- {
		if s := v.segs[i]; doc >= s.base {
			return s.idx.Doc(int(doc - s.base))
		}
	}
	return nil
}

// LiveEngine is the generational mutable counterpart of Engine: it absorbs
// pages while serving, and satisfies the same retrieval surface (it is a
// core.Retriever). The zero value is not usable; create with
// NewLiveEngine. Safe for concurrent use: any number of readers, any
// number of Add callers (writes serialize internally).
type LiveEngine struct {
	lo LiveOptions // generational lifecycle

	view  atomic.Pointer[liveView]
	cache *LRU[[]Result]
	pass  passCounters // every view's segment engines count into it

	// Writer state, all guarded by wmu; readers never touch it.
	wmu       sync.Mutex
	sealed    []*liveSegment // authoritative sealed list; views copy it
	memPages  []*corpus.Page
	termSeen  map[textproc.Token]struct{} // global vocabulary (terms never leave)
	numDocs   int
	totalToks int

	compactBusy   atomic.Bool // single-flights the background compactor
	compactions   atomic.Int64
	docsCompacted atomic.Int64
	epochBumps    atomic.Int64 // publishes == cache epoch-invalidations
}

// NewLiveEngine creates a live generational engine, optionally
// bootstrapped with an initial page set (indexed as one big sealed
// segment — the frozen-boot fast path, so a server restored from a store
// starts with frozen-index performance). opts sizes the epoch-keyed query
// cache exactly as it does for NewEngineOpts; lo tunes the generational
// lifecycle.
func NewLiveEngine(pages []*corpus.Page, opts Options, lo LiveOptions) *LiveEngine {
	lo = lo.withDefaults()
	le := &LiveEngine{
		lo:       lo,
		cache:    NewLRU[[]Result](opts.Capacity()),
		termSeen: make(map[textproc.Token]struct{}),
	}
	var segs []*liveSegment
	if len(pages) > 0 {
		idx := BuildIndex(pages)
		segs = append(segs, &liveSegment{idx: idx})
		le.numDocs = idx.NumDocs()
		le.totalToks = idx.TotalTokens()
		idx.Terms(func(t textproc.Token, _ int) { le.termSeen[t] = struct{}{} })
	}
	le.sealed = segs
	le.view.Store(le.buildViewLocked())
	return le
}

// buildViewLocked assembles the next view from the writer state: snapshot
// the global statistics, derive μ exactly as NewEngine would for a frozen
// index with the same totals (AutoMu), and bind one scoring Engine per
// segment to the shared stats. The per-segment engines carry no cache —
// the LiveEngine's epoch-keyed cache fronts the whole merged view.
// Caller holds wmu (or is the constructor).
func (le *LiveEngine) buildViewLocked() *liveView {
	var epoch uint64
	if cur := le.view.Load(); cur != nil {
		epoch = cur.epoch + 1
	}
	memDocs := 0
	segs := make([]*liveSegment, 0, len(le.sealed)+1)
	segs = append(segs, le.sealed...)
	if len(le.memPages) > 0 {
		base := int64(0)
		if n := len(le.sealed); n > 0 {
			base = le.sealed[n-1].end()
		}
		memSeg := &liveSegment{idx: BuildIndex(slices.Clone(le.memPages)), base: base}
		segs = append(segs, memSeg)
		memDocs = len(le.memPages)
	}
	st := &liveStats{
		segs:      segs,
		numDocs:   le.numDocs,
		totalToks: le.totalToks,
		numTerms:  len(le.termSeen),
	}
	v := &liveView{
		epoch:   epoch,
		segs:    segs,
		engines: make([]*Engine, len(segs)),
		stats:   st,
		mu:      AutoMu(st.numDocs, st.totalToks),
		memDocs: memDocs,
	}
	for i, s := range segs {
		v.engines[i] = &Engine{
			idx:   s.idx,
			mu:    v.mu,
			topK:  le.lo.TopK,
			stats: st,
			pass:  &le.pass,
		}
	}
	return v
}

// publishLocked stores the next view and counts the epoch bump (each bump
// implicitly invalidates every cached result of the previous epoch).
// Caller holds wmu.
func (le *LiveEngine) publishLocked() {
	le.view.Store(le.buildViewLocked())
	le.epochBumps.Add(1)
}

// Add ingests pages in order and publishes a new epoch. The memtable is
// rebuilt once per call (batching amortizes the serial rebuild), seals
// automatically at MemtableDocs, and the background compactor is kicked
// when a merge candidate appears. Concurrent Add calls serialize; their
// relative order is the ingest order parity is defined over.
func (le *LiveEngine) Add(pages ...*corpus.Page) {
	if len(pages) == 0 {
		return
	}
	le.pretokenize(pages)
	le.wmu.Lock()
	for _, p := range pages {
		toks := p.Tokens()
		le.totalToks += len(toks)
		for _, t := range toks {
			le.termSeen[t] = struct{}{}
		}
	}
	le.numDocs += len(pages)
	le.memPages = append(le.memPages, pages...)
	for len(le.memPages) >= le.lo.MemtableDocs {
		le.sealLocked(le.lo.MemtableDocs)
	}
	le.publishLocked()
	le.wmu.Unlock()
	le.maybeCompact()
}

// sealLocked turns the first n memtable pages into a sealed segment.
// Batched adds seal one MemtableDocs-sized segment at a time so segment
// sizes (and therefore compaction tiers) do not depend on how ingestion
// happened to be batched. Caller holds wmu.
func (le *LiveEngine) sealLocked(n int) {
	if n > len(le.memPages) {
		n = len(le.memPages)
	}
	if n <= 0 {
		return
	}
	base := int64(0)
	if ns := len(le.sealed); ns > 0 {
		base = le.sealed[ns-1].end()
	}
	le.sealed = append(le.sealed, &liveSegment{
		idx:  BuildIndex(slices.Clone(le.memPages[:n])),
		base: base,
	})
	le.memPages = append(le.memPages[:0], le.memPages[n:]...)
}

// Seal forces the whole memtable (if any) into a sealed segment and
// publishes a new epoch — the explicit segment-boundary hook parity tests
// drive.
func (le *LiveEngine) Seal() {
	le.wmu.Lock()
	if len(le.memPages) > 0 {
		le.sealLocked(len(le.memPages))
		le.publishLocked()
	}
	le.wmu.Unlock()
	le.maybeCompact()
}

// pretokenize forces Page.Tokens on every incoming page outside the
// writer lock, fanned over IngestWorkers, so the serial rebuild under the
// lock only reads cached token slices.
func (le *LiveEngine) pretokenize(pages []*corpus.Page) {
	w := le.lo.IngestWorkers
	if w > len(pages) {
		w = len(pages)
	}
	if w <= 1 {
		for _, p := range pages {
			p.Tokens()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(pages) {
					return
				}
				pages[n].Tokens()
			}
		}()
	}
	wg.Wait()
}

// fanIn resolves the effective compaction fan-in: CompactFanIn's
// magnitude, with the default restored when a bare -1 asked only to
// disable the background compactor.
func (le *LiveEngine) fanIn() int {
	f := le.lo.CompactFanIn
	if f < 0 {
		f = -f
	}
	if f < 2 {
		f = DefaultCompactFanIn
	}
	return f
}

// tier buckets a segment size for compaction: sizes in the same
// power-of-fanIn band of the memtable size share a tier, so steady
// ingestion keeps O(fanIn · log n) segments.
func (le *LiveEngine) tier(n int) int {
	f := le.fanIn()
	t := 0
	for band := le.lo.MemtableDocs; n > band; band *= f {
		t++
	}
	return t
}

// compactRunLocked picks the oldest run of CompactFanIn adjacent sealed
// segments sharing a size tier. Adjacency is load-bearing: merging
// neighbors keeps every segment a contiguous global-ordinal range, which
// is what makes compaction invisible to the ranking. Returns lo == hi
// when nothing needs compacting. Caller holds wmu.
func (le *LiveEngine) compactRunLocked() (lo, hi int) {
	f := le.fanIn()
	runStart := 0
	for i := 1; i <= len(le.sealed); i++ {
		same := i < len(le.sealed) &&
			le.tier(le.sealed[i].idx.NumDocs()) == le.tier(le.sealed[runStart].idx.NumDocs())
		if !same {
			runStart = i
			continue
		}
		if i-runStart+1 >= f {
			return runStart, i + 1
		}
	}
	return 0, 0
}

// maybeCompact kicks the background compactor if it is idle. The
// goroutine loops until no candidate remains, so cascading merges (fanIn
// small segments forming one that completes a higher-tier run) drain
// without waiting for the next ingest.
func (le *LiveEngine) maybeCompact() {
	if le.lo.CompactFanIn < 2 {
		return
	}
	if !le.compactBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer le.compactBusy.Store(false)
		for le.compactOnce() {
		}
	}()
}

// compactOnce merges one candidate run and publishes the spliced view.
// The expensive rebuild happens off the writer lock — run segments are
// immutable, seals only append, and removals re-verify the run by
// identity before splicing — so readers and ingest never wait on a
// compaction. Returns whether a merge happened.
func (le *LiveEngine) compactOnce() bool {
	le.wmu.Lock()
	lo, hi := le.compactRunLocked()
	if lo == hi {
		le.wmu.Unlock()
		return false
	}
	run := make([]*liveSegment, hi-lo)
	copy(run, le.sealed[lo:hi])
	le.wmu.Unlock()

	nDocs := 0
	for _, s := range run {
		nDocs += s.idx.NumDocs()
	}
	pages := make([]*corpus.Page, 0, nDocs)
	for _, s := range run {
		for i := 0; i < s.idx.NumDocs(); i++ {
			pages = append(pages, s.idx.Doc(i))
		}
	}
	merged := &liveSegment{idx: BuildIndex(pages), base: run[0].base}

	le.wmu.Lock()
	if lo >= len(le.sealed) || hi > len(le.sealed) ||
		le.sealed[lo] != run[0] || le.sealed[hi-1] != run[len(run)-1] {
		// Another compactor (explicit Compact racing the background one)
		// already retired part of the run; drop this merge.
		le.wmu.Unlock()
		return false
	}
	spliced := make([]*liveSegment, 0, len(le.sealed)-len(run)+1)
	spliced = append(spliced, le.sealed[:lo]...)
	spliced = append(spliced, merged)
	spliced = append(spliced, le.sealed[hi:]...)
	le.sealed = spliced
	le.publishLocked()
	le.wmu.Unlock()
	le.compactions.Add(1)
	le.docsCompacted.Add(int64(nDocs))
	return true
}

// Compact synchronously drains every compactable run — the deterministic
// hook for explicit compaction schedules (pair it with CompactFanIn < 0
// to keep the background compactor out of the way).
func (le *LiveEngine) Compact() {
	for le.compactOnce() {
	}
}

// Quiesce blocks until no compaction is running and no compactable run
// remains — the deterministic point differential tests compare at. With
// background compaction disabled there is nothing to wait for.
func (le *LiveEngine) Quiesce() {
	if le.lo.CompactFanIn < 2 {
		return
	}
	for {
		if le.compactBusy.Load() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		le.wmu.Lock()
		lo, hi := le.compactRunLocked()
		le.wmu.Unlock()
		if lo == hi {
			return
		}
		// An idle compactor with work left (e.g. its kick raced a seal):
		// re-kick and wait for it to drain.
		le.maybeCompact()
	}
}

// liveScratch is the pooled per-query merge state of one multi-segment
// search: the hoisted per-view scoring constants, the flat ranked buffer
// every segment appends into, per-segment end offsets, the list headers
// handed to MergeTopKAppend, and the merged top-k.
type liveScratch struct {
	consts []float64
	rd     []RankedDoc
	ends   []int
	lists  [][]RankedDoc
	merged []RankedDoc
}

var liveScratchPool = sync.Pool{New: func() any { return new(liveScratch) }}

// Search returns the top-k pages for the query over the current view.
func (le *LiveEngine) Search(query []textproc.Token) []Result {
	return le.SearchAppend(nil, query)
}

// SearchAppend is Search with a caller-provided result buffer. With a
// reused dst a cache hit costs zero allocations regardless of the segment
// count — the multi-segment merge only runs on misses.
func (le *LiveEngine) SearchAppend(dst []Result, query []textproc.Token) []Result {
	return le.SearchTopKAppend(dst, 0, query)
}

// SearchTopKAppend is SearchAppend with an explicit result-list size
// (k ≤ 0 uses the configured TopK) — the per-request override the serving
// layer passes through without re-deriving engines.
func (le *LiveEngine) SearchTopKAppend(dst []Result, k int, query []textproc.Token) []Result {
	if len(query) == 0 {
		return dst
	}
	if k <= 0 {
		k = le.lo.TopK
	}
	v := le.view.Load()
	if le.cache == nil {
		return le.searchViewAppend(dst, v, k, query)
	}
	kb := cacheKeyPool.Get().(*cacheKeyBuf)
	key := appendLiveCacheKey(kb.b[:0], v.epoch, k, query)
	// The cache owns its result slices: a hit is copied into the caller's
	// buffer and a miss stores a copy, so callers keep mutating the slices
	// Search hands them (the pre-cache contract).
	res, hit := le.cache.Get(key)
	out := append(dst, res...)
	if !hit {
		out = le.searchViewAppend(dst, v, k, query)
		le.cache.Put(key, append([]Result(nil), out[len(dst):]...))
	}
	kb.b = key
	cacheKeyPool.Put(kb)
	return out
}

// appendLiveCacheKey leads appendCacheKey's encoding with the view epoch:
// a publish bumps it, so every stale entry stops matching instantly —
// invalidation is one integer, not a flush — and ages out of the LRU. The
// epoch must say where it ends, hence a uvarint like every other number in
// the key: k's byte can be an ASCII digit ('2' is k = 50), so a decimal
// epoch with nothing after it runs into k — epoch 1, k 50 and epoch 12
// both open "12" (DESIGN.md "Retrieval engine").
func appendLiveCacheKey(dst []byte, epoch uint64, k int, query []textproc.Token) []byte {
	return appendCacheKey(binary.AppendUvarint(dst, epoch), k, query)
}

// searchViewAppend scores the query over every segment of the view and
// merges the per-segment top-k into the global ranking — a local
// scatter-gather. MergeTopKAppend breaks ties on the lower global ordinal
// (ingest order), which is exactly the frozen engine's document-order
// tie-break, and each segment returns its full local top-k, so the global
// top-k is contained in the union and the merge is exact.
func (le *LiveEngine) searchViewAppend(dst []Result, v *liveView, k int, query []textproc.Token) []Result {
	switch len(v.segs) {
	case 0:
		return dst
	case 1:
		// Single segment: local ordinals are the global ordinals; skip
		// the merge entirely (the frozen-boot steady state).
		return v.engines[0].searchPrunedAppend(dst, k, query)
	}
	sc := liveScratchPool.Get().(*liveScratch)

	// The scoring constants depend only on the view-global statistics, so
	// hoist them once per query instead of once per segment — liveStats
	// probes are O(segments) each, and recomputing them per segment would
	// make the per-query stat cost quadratic in the segment count. Every
	// segment engine is bound to the view's statistics, so the first one's
	// constants are everyone's.
	consts := v.engines[0].scoreConsts(sc.consts[:0], query)
	sc.consts = consts

	rd := sc.rd[:0]
	ends := sc.ends[:0]
	for i, eng := range v.engines {
		ssc := searchScratchPool.Get().(*searchScratch)
		for _, c := range eng.searchCandsIn(ssc, query, k, consts) {
			rd = append(rd, RankedDoc{Doc: v.segs[i].base + int64(c.doc), Score: c.score})
		}
		releaseSearchScratch(ssc)
		ends = append(ends, len(rd))
	}
	lists := sc.lists[:0]
	lo := 0
	for _, e := range ends {
		lists = append(lists, rd[lo:e])
		lo = e
	}
	merged := MergeTopKAppend(sc.merged[:0], k, lists)
	for _, m := range merged {
		dst = append(dst, Result{Page: v.pageAt(m.Doc), Score: m.Score})
	}
	sc.rd, sc.ends, sc.merged = rd, ends, merged
	for i := range lists {
		lists[i] = nil
	}
	sc.lists = lists
	liveScratchPool.Put(sc)
	return dst
}

// SearchWithSeed runs Search on seed ∥ query (the paper appends the seed
// query to every subsequent query to stay focused on the target entity).
func (le *LiveEngine) SearchWithSeed(seed, query []textproc.Token) []Result {
	return le.SearchWithSeedAppend(nil, seed, query)
}

// SearchWithSeedAppend is SearchWithSeed with a caller-provided buffer.
func (le *LiveEngine) SearchWithSeedAppend(dst []Result, seed, query []textproc.Token) []Result {
	return le.SearchWithSeedTopKAppend(dst, 0, seed, query)
}

// SearchWithSeedTopKAppend is SearchWithSeedAppend with an explicit
// result-list size (k ≤ 0 uses the configured TopK); the concatenation
// lives in pooled scratch.
func (le *LiveEngine) SearchWithSeedTopKAppend(dst []Result, k int, seed, query []textproc.Token) []Result {
	sb := seedQueryPool.Get().(*seedQueryBuf)
	combined := append(append(sb.toks[:0], seed...), query...)
	dst = le.SearchTopKAppend(dst, k, combined)
	sb.toks = combined
	seedQueryPool.Put(sb)
	return dst
}

// Retrieve is the session retriever contract (core.Retriever), exactly
// as on the frozen Engine: the search runs over the view current when it
// starts and cannot fail.
func (le *LiveEngine) Retrieve(ctx context.Context, dst []Result, seed, query []textproc.Token) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return le.SearchWithSeedTopKAppend(dst, 0, seed, query), nil
}

// TopK returns the configured result-list size.
func (le *LiveEngine) TopK() int { return le.lo.TopK }

// Mu returns the current view's Dirichlet smoothing parameter (it tracks
// the growing collection exactly as NewEngine's AutoMu would).
func (le *LiveEngine) Mu() float64 { return le.view.Load().mu }

// Epoch returns the current view epoch; every ingest, seal, and
// compaction publish bumps it.
func (le *LiveEngine) Epoch() uint64 { return le.view.Load().epoch }

// NumDocs returns the number of ingested documents in the current view.
func (le *LiveEngine) NumDocs() int { return le.view.Load().stats.numDocs }

// NumTerms returns the global vocabulary size of the current view.
func (le *LiveEngine) NumTerms() int { return le.view.Load().stats.numTerms }

// TotalTokens returns the collection length in tokens.
func (le *LiveEngine) TotalTokens() int { return le.view.Load().stats.totalToks }

// CollectionFreq sums the token's collection frequency across the current
// view's segments.
func (le *LiveEngine) CollectionFreq(t textproc.Token) int {
	return le.view.Load().stats.StatCollFreq(t)
}

// Pages returns the ingested pages in global-ordinal (ingest) order —
// exactly the page set a frozen BuildIndex rebuild would index, i.e. the
// right-hand side of the parity contract.
func (le *LiveEngine) Pages() []*corpus.Page {
	v := le.view.Load()
	out := make([]*corpus.Page, 0, v.stats.numDocs)
	for _, s := range v.segs {
		for i := 0; i < s.idx.NumDocs(); i++ {
			out = append(out, s.idx.Doc(i))
		}
	}
	return out
}

// CacheStats reports the epoch-keyed query cache's lifetime hit and miss
// counts (zeroes when the cache is disabled).
func (le *LiveEngine) CacheStats() (hits, misses uint64) {
	hits, misses, _ = le.cache.Stats()
	return hits, misses
}

// PassStats reports the scoring passes' work over every view and segment
// since the engine was built, as Engine.PassStats does.
func (le *LiveEngine) PassStats() (visited, scored uint64) {
	return le.pass.visited.Load(), le.pass.scored.Load()
}

// LiveMetrics is the ingest-side gauge snapshot the serving layer exports
// on /api/v1/metrics.
type LiveMetrics struct {
	Epoch              uint64 `json:"epoch"`
	Segments           int    `json:"segments"`
	MemtableDocs       int    `json:"memtableDocs"`
	NumDocs            int    `json:"numDocs"`
	Compactions        int64  `json:"compactions"`
	DocsCompacted      int64  `json:"docsCompacted"`
	EpochInvalidations int64  `json:"epochInvalidations"`
}

// Metrics snapshots the engine's generational gauges.
func (le *LiveEngine) Metrics() LiveMetrics {
	v := le.view.Load()
	return LiveMetrics{
		Epoch:              v.epoch,
		Segments:           len(v.segs),
		MemtableDocs:       v.memDocs,
		NumDocs:            v.stats.numDocs,
		Compactions:        le.compactions.Load(),
		DocsCompacted:      le.docsCompacted.Load(),
		EpochInvalidations: le.epochBumps.Load(),
	}
}
