package search

import (
	"context"
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
// Every query runs over a published view, and a view is an Engine
// (engine.go): the segment list, the collection statistics snapshotted over
// it and the next epoch. Its miss path scores each segment into (global
// ordinal, score) pairs and MergeTopKAppend — the cluster scatter-gather
// merge — folds them into the global ranking, because a live engine is
// morally a local scatter-gather. LiveEngine itself is only the writer.
//
// Readers never lock. Each mutation publishes a fresh immutable view behind
// an atomic pointer; a query pins the view it loaded for its whole
// lifetime, so compaction can retire segments while searches still read
// them. Cache entries are keyed by the view epoch, making invalidation a
// free integer bump: stale entries simply stop matching and leave the
// cache as new ones push them out — a retired view's entries are never hit
// again, so they drain out of the small queue, or out of the main queue as
// their counters run down.
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
	if o.TopK == 0 {
		o.TopK = DefaultTopK
	}
	return o
}

// liveStats is a live view's StatSource: collection totals are ints
// snapshotted at publish (the writer maintains them incrementally), while
// per-term frequencies are summed across the view's immutable segment
// indexes on demand — O(segments) map probes per query token, hoisted
// once per query by the scoring constants, instead of an O(vocabulary)
// stats rebuild per ingest.
type liveStats struct {
	segs      []segment
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

func (st *liveStats) StatTotalTokens() int { return st.totalToks }
func (st *liveStats) StatNumTerms() int    { return st.numTerms }

// LiveEngine is the writer of a growing collection: it absorbs pages while
// serving and publishes, per mutation, the next immutable Engine over what
// it holds. Searches, statistics and counters are read from View(); it is
// itself a core.Retriever that follows the epochs. The zero value is not
// usable; create with NewLiveEngine. Safe for concurrent use: any number
// of readers, any number of Add callers (writes serialize internally).
type LiveEngine struct {
	lo LiveOptions // generational lifecycle

	view  atomic.Pointer[Engine]
	cache *Cache[[]Result] // shared by every view, keyed by epoch
	pass  passCounters     // every view counts into it

	// Writer state, all guarded by wmu; readers never touch it.
	wmu       sync.Mutex
	sealed    []segment // authoritative sealed list; views copy it
	memPages  []*corpus.Page
	termSeen  map[textproc.Token]struct{} // global vocabulary (terms never leave)
	numDocs   int
	totalToks int

	memDocs       atomic.Int64 // docs in the published view's memtable segment
	compactBusy   atomic.Bool  // single-flights the background compactor
	compactions   atomic.Int64
	docsCompacted atomic.Int64
	epochBumps    atomic.Int64 // publishes == cache epoch-invalidations
}

// NewLiveEngine creates a live generational engine over boot, its first
// sealed segment (nil: start empty) — the frozen-boot fast path, so a
// server restored from a store serves the index it loaded, at frozen-index
// performance. opts sizes the epoch-keyed query cache exactly as it does
// for NewEngineOpts; lo tunes the generational lifecycle.
func NewLiveEngine(boot *Index, opts Options, lo LiveOptions) *LiveEngine {
	le := &LiveEngine{
		lo:       lo.withDefaults(),
		cache:    NewCache[[]Result](opts.Capacity()),
		termSeen: make(map[textproc.Token]struct{}),
	}
	if boot != nil && boot.NumDocs() > 0 {
		le.sealed = []segment{{idx: boot}}
		le.numDocs = boot.NumDocs()
		le.totalToks = boot.TotalTokens()
		boot.Terms(func(t textproc.Token, _ int) { le.termSeen[t] = struct{}{} })
	}
	le.view.Store(le.buildViewLocked())
	return le
}

// View returns the current published view: an immutable Engine over
// everything ingested so far. Reads made through one View come from one
// epoch; the next mutation publishes a new one and leaves this one as it
// was.
func (le *LiveEngine) View() *Engine { return le.view.Load() }

// buildViewLocked assembles the next view from the writer state: the
// sealed segments plus (when non-empty) the memtable at the tail, the
// global statistics snapshotted over them, μ derived exactly as NewEngine
// would for a frozen index with the same totals (AutoMu), and the engine's
// one cache and pass counters. Caller holds wmu (or is the constructor).
func (le *LiveEngine) buildViewLocked() *Engine {
	var epoch uint64
	if cur := le.view.Load(); cur != nil {
		epoch = cur.epoch + 1
	}
	segs := make([]segment, 0, len(le.sealed)+1)
	segs = append(segs, le.sealed...)
	if len(le.memPages) > 0 {
		segs = append(segs, segment{idx: BuildIndex(slices.Clone(le.memPages)), base: le.sealedEnd()})
	}
	return &Engine{
		segs:  segs,
		stats: &liveStats{segs: segs, totalToks: le.totalToks, numTerms: len(le.termSeen)},
		mu:    AutoMu(le.numDocs, le.totalToks),
		topK:  le.lo.TopK,
		epoch: epoch,
		cache: le.cache,
		pass:  &le.pass,
	}
}

// sealedEnd is the global ordinal the next segment starts at. Caller holds
// wmu.
func (le *LiveEngine) sealedEnd() int64 {
	if n := len(le.sealed); n > 0 {
		return le.sealed[n-1].end()
	}
	return 0
}

// publishLocked stores the next view and counts the epoch bump (each bump
// implicitly invalidates every cached result of the previous epoch).
// Caller holds wmu.
func (le *LiveEngine) publishLocked() {
	le.view.Store(le.buildViewLocked())
	le.memDocs.Store(int64(len(le.memPages)))
	le.epochBumps.Add(1)
}

// Add ingests pages in order and publishes a new epoch. The memtable is
// rebuilt once per call (batching amortizes the serial rebuild), seals
// automatically at MemtableDocs, and the background compactor is kicked
// when a merge candidate appears. Concurrent Add calls serialize; their
// relative order is the ingest order parity is defined over. Add reads
// each page's tokens through Page.Tokens, so an added page keeps them for
// the memtable rebuilds that follow; a caller that wants the tokenizing
// done outside the writer lock calls Tokens on its pages first.
func (le *LiveEngine) Add(pages ...*corpus.Page) {
	if len(pages) == 0 {
		return
	}
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
	le.sealed = append(le.sealed, segment{
		idx:  BuildIndex(slices.Clone(le.memPages[:n])),
		base: le.sealedEnd(),
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
	run := make([]segment, hi-lo)
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
	merged := segment{idx: BuildIndex(pages), base: run[0].base}

	le.wmu.Lock()
	if lo >= len(le.sealed) || hi > len(le.sealed) ||
		le.sealed[lo].idx != run[0].idx || le.sealed[hi-1].idx != run[len(run)-1].idx {
		// Another compactor (explicit Compact racing the background one)
		// already retired part of the run; drop this merge.
		le.wmu.Unlock()
		return false
	}
	spliced := make([]segment, 0, len(le.sealed)-len(run)+1)
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

// Retrieve is the session retriever contract (core.Retriever), exactly
// as on Engine: the search runs over the view current when it starts and
// cannot fail, so a session held across ingests follows the epochs.
func (le *LiveEngine) Retrieve(ctx context.Context, dst []Result, seed, query []textproc.Token) ([]Result, error) {
	return le.View().Retrieve(ctx, dst, seed, query)
}

// TopK returns the configured result-list size.
func (le *LiveEngine) TopK() int { return le.lo.TopK }

// Pages returns the ingested pages in global-ordinal (ingest) order —
// exactly the page set a frozen BuildIndex rebuild would index, i.e. the
// right-hand side of the parity contract.
func (le *LiveEngine) Pages() []*corpus.Page {
	v := le.View()
	out := make([]*corpus.Page, 0, v.NumDocs())
	for _, s := range v.segs {
		for i := 0; i < s.idx.NumDocs(); i++ {
			out = append(out, s.idx.Doc(i))
		}
	}
	return out
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
	v := le.View()
	return LiveMetrics{
		Epoch:              v.epoch,
		Segments:           len(v.segs),
		MemtableDocs:       int(le.memDocs.Load()),
		NumDocs:            v.NumDocs(),
		Compactions:        le.compactions.Load(),
		DocsCompacted:      le.docsCompacted.Load(),
		EpochInvalidations: le.epochBumps.Load(),
	}
}
