package search

import (
	"sort"

	"l2q/internal/textproc"
)

// SearchReference is the retained score-everything path: gather the
// candidate union into hash maps, score every candidate, and fully sort.
// It is deliberately kept verbatim as the ground truth the pruned, cached
// SearchWithSeed is differentially tested against, and as the baseline the
// engine benchmarks compare throughput with. It never consults the query
// cache.
// A view of several segments is walked segment by segment, each document
// under its global ordinal, so it is its own reference — no merge, no
// rebuilt twin.
func (e *Engine) SearchReference(query []textproc.Token) []Result {
	if len(query) == 0 {
		return nil
	}
	type hit struct {
		doc int64 // global ordinal
		res Result
	}
	var hits []hit
	for _, s := range e.segs {
		// Candidate set: union of postings.
		tfs := make(map[int32]map[textproc.Token]int32)
		for _, t := range query {
			for _, p := range s.idx.listFor(t).posts {
				m := tfs[p.doc]
				if m == nil {
					m = make(map[textproc.Token]int32, len(query))
					tfs[p.doc] = m
				}
				m[t] = p.tf
			}
		}
		for doc, m := range tfs {
			dl := s.idx.docLen[doc]
			score := 0.0
			for _, t := range query {
				score += DirichletTermScore(int(m[t]), dl, e.mu, e.collProb(t))
			}
			hits = append(hits, hit{s.base + int64(doc), Result{Page: s.idx.docs[doc], Score: score}})
		}
	}
	if len(hits) == 0 {
		return nil
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].res.Score != hits[j].res.Score {
			return hits[i].res.Score > hits[j].res.Score
		}
		return hits[i].doc < hits[j].doc
	})
	k := min(e.topK, len(hits))
	out := make([]Result, 0, k)
	for _, h := range hits[:k] {
		out = append(out, h.res)
	}
	return out
}
