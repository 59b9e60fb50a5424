package search

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// cand is one scored candidate document.
type cand struct {
	doc   int32
	score float64
}

// betterCand reports whether a ranks strictly above b: higher score, ties
// broken by lower document ordinal (corpus page order) — the same total
// order the reference path sorts by.
func betterCand(a, b cand) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.doc < b.doc
}

// compareCand adapts betterCand to the slices.SortFunc contract. Document
// ordinals are unique within one search (a document is scored once), so
// this is a total order and the sort is deterministic.
func compareCand(a, b cand) int {
	switch {
	case betterCand(a, b):
		return -1
	case betterCand(b, a):
		return 1
	}
	return 0
}

// topKHeap keeps the K best elements seen so far in O(log K) per push,
// under the strict "ranks above" order better. The root is the worst kept
// element, so a full heap rejects most pushes with a single comparison.
// Generic so the scorer (cand) and the cluster merge (RankedDoc) share one
// heap; better is always a top-level func, so no closure is allocated.
type topKHeap[T any] struct {
	k      int
	better func(a, b T) bool
	h      []T
}

func (t *topKHeap[T]) push(c T) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		i := len(t.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !t.better(t.h[p], t.h[i]) {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
		return
	}
	if !t.better(c, t.h[0]) {
		return
	}
	t.h[0] = c
	i := 0
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && t.better(t.h[w], t.h[l]) {
			w = l
		}
		if r < n && t.better(t.h[w], t.h[r]) {
			w = r
		}
		if w == i {
			return
		}
		t.h[i], t.h[w] = t.h[w], t.h[i]
		i = w
	}
}

// dirichletScore sums the per-term Dirichlet scores in query-position
// order — the exact summation order of the reference path, so the float64
// result is bit-identical to it.
func dirichletScore(tfv []int32, dl int, mu float64, pC []float64) float64 {
	s := 0.0
	for i, pc := range pC {
		s += DirichletTermScore(int(tfv[i]), dl, mu, pc)
	}
	return s
}

// ratioProduct is the exponential of dirichletScore without a logarithm
// taken: Πᵢ (tfᵢ + μ·p(tᵢ|C)) / (|d| + μ), the operands DirichletTermScore
// puts under its logarithm, multiplied in the same order. It ranks nothing —
// the contender test (searchCandsIn) only uses it to tell which documents
// are not worth their logarithms.
func ratioProduct(tfv []int32, dl int, mu float64, pC []float64) float64 {
	den := float64(dl) + mu
	p := 1.0
	for i, pc := range pC {
		p *= (float64(tfv[i]) + mu*pc) / den
	}
	return p
}

// The contender test's two constants. A document is skipped when its
// ratioProduct is below contenderCut of the heap's k-th score s_k, and the
// claim is that its exact score is then strictly below s_k, so h.push would
// have refused it (ties at s_k are never skipped; the lower-ordinal rule
// is untouched). The test runs only when μ > 0 and every p(t|C) is in
// (0, 1] — what CollectionProb yields for any collection; a foreign
// StatSource may not — and tf ≤ |d| by construction of both index
// constructors, so every ratio is in (0, 1], every logarithm ≤ 0 and
// Σ|log rᵢ| = |S| for the real number S = Σ log rᵢ. Then, with n = |q|:
//
//   - the summed logarithms differ from S by at most (n+1)·2⁻⁵²·|S| (a
//     math.Log within an ulp, n−1 rounded additions);
//   - the product differs from exp(S) by at most n·2⁻⁵³ relative, while
//     it stays normal; partial products only shrink, so a product that
//     left the normal range is below 2⁻¹⁰²² and the floor below puts any
//     non-zero cut 2¹²² above that;
//   - math.Exp within an ulp of an argument rounded at |s_k| ≤ 624 is off
//     by under 2⁻⁴³ relative, which the factor (1 − 2⁻⁴⁰) absorbs: the cut
//     is at most the real exp(s_k − τ).
//
// So product < cut gives S < s_k − τ + n·2⁻⁵³, and the computed score is
// below s_k as long as τ·(1 − ε) > n·2⁻⁵³ + ε·|s_k| with ε = (n+1)·2⁻⁵²:
// at τ = 10⁻⁹·(1 + |s_k|) that holds for every query under four million
// tokens, and τ is still far below any score gap the test feeds on (1.4 %
// of the documents reaching it are scored at paper scale). Exactness never
// rests on the last bit of a logarithm, an exponential or a product.
const (
	contenderSlack = 1e-9
	// contenderFloor is the smallest exp(s_k − τ) the test trusts: below
	// it (queries past ≈ 60 tokens, which the network may send) the cut is
	// 0, nothing is below it and every document is scored exactly — the
	// stop test's degrade-to-scoring-everything rule.
	contenderFloor = 0x1p-900
)

// contenderCut is the product-domain image of the heap's k-th score sk,
// lowered by the slack argued above.
func contenderCut(sk float64) float64 {
	cut := math.Exp(sk - contenderSlack*(1+math.Abs(sk)))
	if cut < contenderFloor {
		return 0
	}
	return cut * (1 - 0x1p-40)
}

// passCounters is the work of an engine's scoring passes since it was
// built, shared by the copies derived from it (WithMu, WithTopK, ...): the
// documents that reached the contender test — every document the pass
// assembled a tf vector for — and those of them it scored exactly.
type passCounters struct{ visited, scored atomic.Uint64 }

// scoreConsts appends the per-position smoothed collection model p(t|C) of
// query under the engine's collection statistics. The reference recomputes
// it per candidate; the values are identical, so hoisting is
// ranking-neutral.
func (e *Engine) scoreConsts(dst []float64, query []textproc.Token) []float64 {
	for _, t := range query {
		dst = append(dst, e.collProb(t))
	}
	return dst
}

// searchScratch is the pooled working state of one scoring pass: the
// query's posting lists and per-position scoring constants, the visiting
// order with each position's gain, one galloping cursor per list, the tf
// vector of the document being scored, the tf vector the bound is scored
// from, and the top-K heap's backing array. One scratch serves one pass,
// so a steady-state search allocates nothing beyond results the caller
// keeps (and on cached engines, the canonical copy the cache takes).
type searchScratch struct {
	lists   []postingList
	consts  []float64
	order   []int
	gain    []float64
	cursors []int
	tfv     []int32
	boundTf []int32
	heap    []cand
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searchMissAppend is the one miss path: a view of one segment — a frozen
// engine, a cluster partition, a live engine booted from a store or
// compacted down — runs the pruned pass and is done; any other scores every
// segment and merges.
func (e *Engine) searchMissAppend(dst []Result, k int, query []textproc.Token) []Result {
	if len(e.segs) == 1 {
		return e.searchPrunedAppend(dst, k, query)
	}
	return e.searchMergedAppend(dst, k, query)
}

// searchPrunedAppend scores a one-segment view: one exact max-score pass
// (searchCandsIn) leaves the top-k candidates, and they are sorted by the
// reference order and appended to dst. Local ordinals are the global
// ordinals, so there is nothing to merge.
func (e *Engine) searchPrunedAppend(dst []Result, k int, query []textproc.Token) []Result {
	idx := e.segs[0].idx
	sc := searchScratchPool.Get().(*searchScratch)
	sc.consts = e.scoreConsts(sc.consts[:0], query)
	cands := e.searchCandsIn(idx, sc, query, k, sc.consts)
	slices.SortFunc(cands, compareCand) // unlike sort.Slice, does not allocate
	for _, c := range cands[:min(k, len(cands))] {
		dst = append(dst, Result{Page: idx.docs[c.doc], Score: c.score})
	}
	releaseSearchScratch(sc)
	return dst
}

// viewScratch is the pooled per-query merge state of one multi-segment
// search: the hoisted scoring constants, the flat ranked buffer every
// segment appends into, per-segment end offsets, the list headers handed to
// MergeTopKAppend, and the merged top-k.
type viewScratch struct {
	consts []float64
	rd     []RankedDoc
	ends   []int
	lists  [][]RankedDoc
	merged []RankedDoc
}

var viewScratchPool = sync.Pool{New: func() any { return new(viewScratch) }}

// searchMergedAppend scores the query over every segment of the view and
// merges the per-segment top-k into the global ranking — a local
// scatter-gather. MergeTopKAppend breaks ties on the lower global ordinal
// (ingest order), which is exactly the one-segment pass's document-order
// tie-break, and each segment returns its full local top-k, so the global
// top-k is contained in the union and the merge is exact. A view without
// segments (a live engine nothing was added to) merges nothing.
func (e *Engine) searchMergedAppend(dst []Result, k int, query []textproc.Token) []Result {
	sc := viewScratchPool.Get().(*viewScratch)

	// The scoring constants depend only on the view's statistics, so they
	// are hoisted once per query, not once per segment — liveStats probes
	// are O(segments) each, and recomputing them per segment would make the
	// per-query stat cost quadratic in the segment count.
	consts := e.scoreConsts(sc.consts[:0], query)
	sc.consts = consts

	rd := sc.rd[:0]
	ends := sc.ends[:0]
	for _, s := range e.segs {
		ssc := searchScratchPool.Get().(*searchScratch)
		for _, c := range e.searchCandsIn(s.idx, ssc, query, k, consts) {
			rd = append(rd, RankedDoc{Doc: s.base + int64(c.doc), Score: c.score})
		}
		releaseSearchScratch(ssc)
		ends = append(ends, len(rd))
	}
	lists := sc.lists[:0]
	lo := 0
	for _, end := range ends {
		lists = append(lists, rd[lo:end])
		lo = end
	}
	merged := MergeTopKAppend(sc.merged[:0], k, lists)
	for _, m := range merged {
		dst = append(dst, Result{Page: e.pageAt(m.Doc), Score: m.Score})
	}
	sc.rd, sc.ends, sc.merged = rd, ends, merged
	clear(lists)
	sc.lists = lists
	viewScratchPool.Put(sc)
	return dst
}

// pageAt maps a global ordinal back to its page via the segment bases
// (segments are few; scan from the tail, where the hot memtable lives).
func (e *Engine) pageAt(doc int64) *corpus.Page {
	for i := len(e.segs) - 1; i >= 0; i-- {
		if s := e.segs[i]; doc >= s.base {
			return s.idx.Doc(int(doc - s.base))
		}
	}
	return nil
}

// boundSlackPerTerm widens the pruning bound by 4 ulps of the summed
// per-position magnitudes per query position. The bound needs every
// per-term score to be monotone in tf and in document length; the
// arithmetic around math.Log is (IEEE rounding is monotone), but a
// math.Log that errs by under an ulp may order two nearly equal arguments
// the wrong way. The slack covers that, so exactness never rests on the
// last bit of a log — and it is thirteen orders of magnitude below the
// score gaps pruning feeds on.
const boundSlackPerTerm = 0x1p-50

// searchCandsIn is the exact max-score pass over one segment's index, with
// the scoring constants supplied by the caller (hoisted once per query
// across all of a view's segments). It returns the k best candidates,
// unsorted, aliasing sc — none when nothing matches.
//
// The most a position can give any document is its score at (the list's
// maxTf, the index's minDocLen); the most it gives a document without the
// token is its score at (0, minDocLen). Lists are visited in descending
// order of the gap between the two — the seed entity's rare tokens first,
// stopwords last. Walking a list scores each document on it that no
// earlier list held, once, with the reference's own scoring function over
// the full query-position-ordered tf vector (the other lists are read
// through galloping cursors), so scores are bit-identical to the
// reference's. Before each list, the same function scores the best case
// of a still unseen document: tf 0 at visited positions, maxTf at the
// rest, length minDocLen. Once the heap is full and that bound plus the
// slack is below its k-th score, no unseen document can enter and the
// pass stops — "seed ∥ he" never walks the stopword's list. Nothing
// assumes the best documents hold the rarest token. Within a walk, once
// the heap is full, the contender test (contenderSlack) spares a document
// its logarithms when its score's exponential — a plain product — is
// below the image of the k-th score: such a document would have been
// refused by the heap. DESIGN.md "Retrieval
// engine" has the argument in full, and why the pass is not fanned out
// (range-partitioned workers each prune against their own, lower,
// threshold).
func (e *Engine) searchCandsIn(idx *Index, sc *searchScratch, query []textproc.Token, k int, consts []float64) []cand {
	lists := sc.lists[:0]
	total := 0
	for _, t := range query {
		pl := idx.listFor(t)
		lists = append(lists, pl)
		total += len(pl.posts)
	}
	sc.lists = lists
	if total == 0 || k <= 0 {
		return nil
	}

	n := len(lists)
	if cap(sc.order) < n {
		sc.order = make([]int, n)
		sc.gain = make([]float64, n)
		sc.cursors = make([]int, n)
		sc.tfv = make([]int32, n)
		sc.boundTf = make([]int32, n)
	}
	order, gain := sc.order[:n], sc.gain[:n]
	cursors, tfv, boundTf := sc.cursors[:n], sc.tfv[:n], sc.boundTf[:n]
	minDL := idx.minDocLen

	// Per-position gains and the visiting order (insertion sort: queries
	// are a handful of tokens; ties keep query-position order). The
	// Dirichlet term grows with tf, so a non-empty list's gain is positive;
	// an empty list has maxTf 0, its two scores are the same number and its
	// gain exactly 0 — it sorts last and the bound counts it absent. The
	// guard is written !(gain > 0) so that a NaN (a foreign StatSource
	// reporting a negative count puts a negative under the log) lands in
	// that case too instead of in the sort's comparisons.
	slack := 0.0
	cuttable := e.mu > 0 // with every p(t|C) in (0, 1]: see contenderSlack
	for i, pl := range lists {
		cuttable = cuttable && consts[i] > 0 && consts[i] <= 1
		zero, top := [1]int32{}, [1]int32{pl.maxTf}
		absent := dirichletScore(zero[:], minDL, e.mu, consts[i:i+1])
		best := dirichletScore(top[:], minDL, e.mu, consts[i:i+1])
		gain[i], boundTf[i] = best-absent, pl.maxTf
		if !(gain[i] > 0) {
			gain[i], boundTf[i] = 0, 0
		}
		slack += math.Max(math.Abs(best), math.Abs(absent))
		j := i
		for ; j > 0 && gain[order[j-1]] < gain[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	slack *= float64(n) * boundSlackPerTerm

	h := topKHeap[cand]{k: k, better: betterCand, h: sc.heap[:0]}
	// cut is contenderCut(cutFor), recomputed when the heap's root moves — a
	// few dozen times a pass; no score is +Inf, so the first full heap does.
	cutFor, cut := math.Inf(1), 0.0
	var nVisited, nScored uint64
	for v, j := range order {
		if len(h.h) == k && dirichletScore(boundTf, minDL, e.mu, consts)+slack < h.h[0].score {
			break
		}
		boundTf[j] = 0
		visited, rest := order[:v], order[v+1:]
		clear(cursors)
		clear(tfv)
	walk:
		for _, p := range lists[j].posts {
			for _, i := range visited {
				o := lists[i].posts
				c := gallop(o, cursors[i], p.doc)
				cursors[i] = c
				if c < len(o) && o[c].doc == p.doc {
					continue walk // scored when list i was walked
				}
			}
			tfv[j] = p.tf
			for _, i := range rest {
				o := lists[i].posts
				c := gallop(o, cursors[i], p.doc)
				cursors[i] = c
				if c < len(o) && o[c].doc == p.doc {
					tfv[i] = o[c].tf
				} else {
					tfv[i] = 0
				}
			}
			dl := idx.docLen[p.doc]
			nVisited++
			if cuttable && len(h.h) == k {
				if sk := h.h[0].score; sk != cutFor {
					cutFor, cut = sk, contenderCut(sk)
				}
				if ratioProduct(tfv, dl, e.mu, consts) < cut {
					continue // exact score strictly below the k-th: push would refuse it
				}
			}
			nScored++
			h.push(cand{doc: p.doc, score: dirichletScore(tfv, dl, e.mu, consts)})
		}
	}
	e.pass.visited.Add(nVisited)
	e.pass.scored.Add(nScored)
	sc.heap = h.h
	return h.h
}

// gallop returns the smallest c' ≥ c with pl[c'].doc ≥ doc (len(pl) when
// there is none): doubling probes from the cursor, then a binary search
// inside the last stride, so a short list read against a long one costs
// the logarithm of each gap and two lists of like length cost a step each.
func gallop(pl []posting, c int, doc int32) int {
	if c >= len(pl) || pl[c].doc >= doc {
		return c
	}
	lo, hi := c, c+1 // pl[lo].doc < doc throughout
	for step := 1; hi < len(pl) && pl[hi].doc < doc; hi += step {
		lo = hi
		step <<= 1
	}
	if hi > len(pl) {
		hi = len(pl)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl[mid].doc < doc {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// releaseSearchScratch drops the posting-list references (they alias the
// index; no reason to pin them from the pool), truncates the remaining
// buffers — their backing arrays are pool-owned scratch holding only
// value-typed elements, so keeping the capacity is the point — and
// returns sc to the pool.
func releaseSearchScratch(sc *searchScratch) {
	clear(sc.lists)
	sc.consts = sc.consts[:0]
	sc.order, sc.gain, sc.cursors = sc.order[:0], sc.gain[:0], sc.cursors[:0]
	sc.tfv, sc.boundTf = sc.tfv[:0], sc.boundTf[:0]
	sc.heap = sc.heap[:0]
	searchScratchPool.Put(sc)
}
