package search

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// RawPosting is the exported form of one posting, used by the persistence
// layer (internal/store) to serialize an index without re-tokenizing the
// corpus on load.
type RawPosting struct {
	// Doc is the document ordinal (index into the page list the index was
	// built over), not the corpus PageID.
	Doc int32
	// TF is the term frequency in that document.
	TF int32
}

// DumpPostings calls fn once per term in lexicographic order, with the
// term's postings sorted by document ordinal. The posting slice is only
// valid during the call.
func (idx *Index) DumpPostings(fn func(term textproc.Token, posts []RawPosting)) {
	var buf []RawPosting
	for _, t := range slices.Sorted(maps.Keys(idx.terms)) {
		buf = buf[:0]
		for _, p := range idx.listFor(t).posts {
			buf = append(buf, RawPosting{Doc: p.doc, TF: p.tf})
		}
		fn(t, buf)
	}
}

// RestoreIndex rebuilds an index from dumped postings over the same page
// list (same order) the original index was built from. Document lengths,
// collection frequencies and the total token count are recomputed from the
// postings, so the pages' token caches are not touched. The dump is input
// from outside the program (a store file): it returns an error if a
// posting references a document ordinal out of range, carries a
// non-positive term frequency, or repeats a document within one term.
func RestoreIndex(pages []*corpus.Page, terms map[textproc.Token][]RawPosting) (*Index, error) {
	idx := newIndex(pages, len(terms))
	for t, raw := range terms {
		pl := postingList{posts: make([]posting, 0, len(raw))}
		for _, p := range raw {
			if p.Doc < 0 || int(p.Doc) >= len(pages) {
				return nil, fmt.Errorf("search: posting for %q references doc %d of %d", t, p.Doc, len(pages))
			}
			if p.TF <= 0 {
				return nil, fmt.Errorf("search: posting for %q has non-positive tf %d", t, p.TF)
			}
			pl.posts = append(pl.posts, posting{doc: p.Doc, tf: p.TF})
			pl.maxTf = max(pl.maxTf, p.TF)
			pl.collFreq += int(p.TF)
			idx.docLen[p.Doc] += int(p.TF)
		}
		slices.SortFunc(pl.posts, func(a, b posting) int { return cmp.Compare(a.doc, b.doc) })
		for i := 1; i < len(pl.posts); i++ {
			if pl.posts[i].doc == pl.posts[i-1].doc {
				return nil, fmt.Errorf("search: postings for %q name doc %d twice", t, pl.posts[i].doc)
			}
		}
		idx.terms[t] = int32(len(idx.lists))
		idx.lists = append(idx.lists, pl)
	}
	idx.sumDocLens()
	return idx, nil
}
