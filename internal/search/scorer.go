package search

import (
	"slices"
	"sort"
	"sync"

	"l2q/internal/textproc"
)

// minPostingsPerWorker keeps the scorer from spawning goroutines for tiny
// candidate sets, where handoff costs more than the scoring.
const minPostingsPerWorker = 512

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
// ordinals are unique within one search (workers partition the ordinal
// space), so this is a total order and the sort is deterministic.
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

// bm25Score mirrors the reference BM25 accumulation: terms contribute in
// query-position order, absent terms are skipped (they contributed nothing
// in the reference's postings-driven accumulation either).
func bm25Score(tfv []int32, dl int, idf []float64, avgdl, k1, b float64) float64 {
	s := 0.0
	fdl := float64(dl)
	for i, f := range idf {
		if tfv[i] == 0 {
			continue
		}
		tf := float64(tfv[i])
		s += f * (tf * (k1 + 1)) / (tf + k1*(1-b+b*fdl/avgdl))
	}
	return s
}

// workerScratch is one scoring worker's reusable state: posting-list merge
// cursors, the per-candidate term-frequency vector, and the top-K heap's
// backing array. None of it holds pointers, so pooling retains nothing.
type workerScratch struct {
	cursors []int
	tfv     []int32
	heap    []cand
}

// searchScratch is the pooled per-call working state of one sharded
// search: posting-list headers, the per-position scoring constants (p(t|C)
// or idf), the per-worker scratch, and the merged-candidate buffer. One
// scratch serves one searchShardedAppend call, so a steady-state search
// allocates nothing beyond results the caller keeps (and on cached
// engines, the canonical copy the cache takes).
type searchScratch struct {
	lists  [][]posting
	consts []float64
	work   []workerScratch
	merged []cand
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searchShardedAppend is the engine's scoring path: posting lists come
// from the token-hash shards, candidate documents stream out of a k-way
// merge over the (doc-ordinal-sorted) lists, each candidate is scored in
// query order, and per-worker top-K heaps replace the reference's full
// sort. Workers partition the document-ordinal space, so their candidate
// sets are disjoint and the merged ranking equals the reference's. The
// top-k results are appended to dst.
func (e *Engine) searchShardedAppend(dst []Result, k int, query []textproc.Token) []Result {
	if k < 0 {
		k = 0
	}
	sc, cands := e.searchCands(query, k)
	if sc == nil {
		return dst
	}
	dst = e.appendFinish(dst, cands, k)
	releaseSearchScratch(sc)
	return dst
}

// searchCands runs the sharded scoring fan-out and returns the pooled
// scratch together with the unsorted surviving candidates (the union of
// the per-worker top-k heaps). A nil scratch means the query matched no
// postings; otherwise the candidates alias the scratch and the caller
// must releaseSearchScratch once done with them.
func (e *Engine) searchCands(query []textproc.Token, k int) (*searchScratch, []cand) {
	sc := searchScratchPool.Get().(*searchScratch)

	// Per-position scoring constants, hoisted out of the per-document
	// loop (the reference recomputes them per candidate; the values are
	// identical, so hoisting is ranking-neutral).
	consts := sc.consts[:0]
	var pC, idf []float64
	var avgdl float64
	if e.bm25 {
		avgdl = e.avgDocLen()
		for _, t := range query {
			consts = append(consts, e.idf(t))
		}
		idf = consts
	} else {
		for _, t := range query {
			consts = append(consts, e.collProb(t))
		}
		pC = consts
	}
	sc.consts = consts

	cands, ok := e.searchCandsIn(sc, query, k, pC, idf, avgdl)
	if !ok {
		releaseSearchScratch(sc)
		return nil, nil
	}
	return sc, cands
}

// searchCandsIn is searchCands with the scoring constants supplied by the
// caller — the live engine hoists them once per query across all of a
// view's segments (they depend only on the collection statistics, never
// on the segment). Returns ok=false when the query matched no postings;
// the caller still owns sc either way.
func (e *Engine) searchCandsIn(sc *searchScratch, query []textproc.Token, k int, pC, idf []float64, avgdl float64) ([]cand, bool) {
	lists := sc.lists[:0]
	total := 0
	for _, t := range query {
		pl := e.idx.postingsFor(t)
		lists = append(lists, pl)
		total += len(pl)
	}
	sc.lists = lists
	if total == 0 {
		return nil, false
	}

	workers := e.workers
	if maxW := total / minPostingsPerWorker; workers > maxW+1 {
		workers = maxW + 1
	}
	nDocs := e.idx.NumDocs()
	if workers > nDocs {
		workers = nDocs
	}
	if workers < 1 {
		workers = 1
	}
	if cap(sc.work) < workers {
		sc.work = make([]workerScratch, workers)
	}
	work := sc.work[:workers]
	sc.work = work

	if workers == 1 {
		e.scoreRange(lists, 0, int32(nDocs), pC, idf, avgdl, &work[0], k)
		return work[0].heap, true
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := int32(nDocs * w / workers)
		hi := int32(nDocs * (w + 1) / workers)
		wg.Add(1)
		go func(w int, lo, hi int32) {
			defer wg.Done()
			e.scoreRange(lists, lo, hi, pC, idf, avgdl, &work[w], k)
		}(w, lo, hi)
	}
	wg.Wait()
	merged := sc.merged[:0]
	for w := range work {
		merged = append(merged, work[w].heap...)
	}
	sc.merged = merged
	return merged, true
}

// releaseSearchScratch drops the posting-list references (they alias the
// index; no reason to pin them from the pool), truncates the remaining
// buffers — their backing arrays are pool-owned scratch holding only
// value-typed elements, so keeping the capacity is the point — and
// returns sc to the pool.
func releaseSearchScratch(sc *searchScratch) {
	for i := range sc.lists {
		sc.lists[i] = nil
	}
	sc.consts = sc.consts[:0]
	sc.work = sc.work[:0]
	sc.merged = sc.merged[:0]
	searchScratchPool.Put(sc)
}

// scoreRange merges the posting lists over document ordinals [lo, hi),
// scoring every candidate in that range into the worker's heap (left in
// w.heap). Lists are sorted by ordinal, so a cursor per list and a linear
// min-scan suffice (queries are a handful of tokens).
func (e *Engine) scoreRange(lists [][]posting, lo, hi int32, pC, idf []float64, avgdl float64, w *workerScratch, k int) {
	if cap(w.cursors) < len(lists) {
		w.cursors = make([]int, len(lists))
		w.tfv = make([]int32, len(lists))
	}
	cursors := w.cursors[:len(lists)]
	tfv := w.tfv[:len(lists)]
	for i, pl := range lists {
		cursors[i] = sort.Search(len(pl), func(j int) bool { return pl[j].doc >= lo })
	}
	h := topKHeap[cand]{k: k, better: betterCand, h: w.heap[:0]}
	for {
		minDoc := hi
		for i, pl := range lists {
			if c := cursors[i]; c < len(pl) && pl[c].doc < minDoc {
				minDoc = pl[c].doc
			}
		}
		if minDoc >= hi {
			w.heap = h.h
			return
		}
		for i, pl := range lists {
			if c := cursors[i]; c < len(pl) && pl[c].doc == minDoc {
				tfv[i] = pl[c].tf
				cursors[i] = c + 1
			} else {
				tfv[i] = 0
			}
		}
		dl := e.idx.docLen[minDoc]
		var s float64
		if e.bm25 {
			s = bm25Score(tfv, dl, idf, avgdl, e.k1, e.b)
		} else {
			s = dirichletScore(tfv, dl, e.mu, pC)
		}
		h.push(cand{doc: minDoc, score: s})
	}
}

// appendFinish sorts the surviving candidates by the reference order and
// appends the top-k materialized Results to dst. slices.SortFunc (unlike
// sort.Slice) does not allocate.
func (e *Engine) appendFinish(dst []Result, cands []cand, k int) []Result {
	slices.SortFunc(cands, compareCand)
	if k > len(cands) {
		k = len(cands)
	}
	for _, c := range cands[:k] {
		dst = append(dst, Result{Page: e.idx.docs[c.doc], Score: c.score})
	}
	return dst
}
