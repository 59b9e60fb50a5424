package search

import (
	"sort"

	"l2q/internal/textproc"
)

// SearchReference is the retained score-everything path: gather the
// candidate union into hash maps, score every candidate, and fully sort.
// It is deliberately kept verbatim as the ground truth the pruned, cached
// Search is differentially tested against, and as the baseline the engine
// benchmarks compare throughput with. It never consults the query cache.
func (e *Engine) SearchReference(query []textproc.Token) []Result {
	if len(query) == 0 {
		return nil
	}
	// Candidate set: union of postings.
	tfs := make(map[int32]map[textproc.Token]int32)
	for _, t := range query {
		for _, p := range e.idx.listFor(t).posts {
			m := tfs[p.doc]
			if m == nil {
				m = make(map[textproc.Token]int32, len(query))
				tfs[p.doc] = m
			}
			m[t] = p.tf
		}
	}
	if len(tfs) == 0 {
		return nil
	}
	cands := make([]cand, 0, len(tfs))
	for doc, m := range tfs {
		dl := e.idx.docLen[doc]
		s := 0.0
		for _, t := range query {
			s += DirichletTermScore(int(m[t]), dl, e.mu, e.collProb(t))
		}
		cands = append(cands, cand{doc: doc, score: s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].doc < cands[j].doc
	})
	k := e.topK
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]Result, 0, k)
	for _, c := range cands[:k] {
		out = append(out, Result{Page: e.idx.docs[c.doc], Score: c.score})
	}
	return out
}
