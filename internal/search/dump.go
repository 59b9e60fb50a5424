package search

import (
	"fmt"
	"sort"

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
// valid during the call. The dump is independent of the index's shard
// count, so store files round-trip across any shard configuration.
func (idx *Index) DumpPostings(fn func(term textproc.Token, posts []RawPosting)) {
	terms := make([]string, 0, idx.numTerms)
	for s := range idx.shards {
		for t := range idx.shards[s].postings {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	var buf []RawPosting
	for _, t := range terms {
		src := idx.postingsFor(t)
		buf = buf[:0]
		for _, p := range src {
			buf = append(buf, RawPosting{Doc: p.doc, TF: p.tf})
		}
		fn(t, buf)
	}
}

// RestoreIndex rebuilds an index from dumped postings over the same page
// list (same order) the original index was built from, using the default
// shard count; use RestoreIndexOpts to choose one. Document lengths,
// collection frequencies and the total token count are recomputed from the
// postings, so the pages' token caches are not touched. It returns an
// error if a posting references a document ordinal out of range.
func RestoreIndex(pages []*corpus.Page, terms map[textproc.Token][]RawPosting) (*Index, error) {
	return RestoreIndexOpts(pages, terms, Options{})
}

// RestoreIndexOpts is RestoreIndex with an explicit shard count
// (opts.Shards, resolved like BuildIndexOpts).
func RestoreIndexOpts(pages []*corpus.Page, terms map[textproc.Token][]RawPosting, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	idx := &Index{
		docs:   pages,
		docLen: make([]int, len(pages)),
		shards: make([]indexShard, opts.Shards),
	}
	for s := range idx.shards {
		idx.shards[s].postings = make(map[textproc.Token][]posting)
		idx.shards[s].collFreq = make(map[textproc.Token]int)
	}
	for t, posts := range terms {
		dst := make([]posting, 0, len(posts))
		cf := 0
		for _, p := range posts {
			if p.Doc < 0 || int(p.Doc) >= len(pages) {
				return nil, fmt.Errorf("search: posting for %q references doc %d of %d", t, p.Doc, len(pages))
			}
			if p.TF <= 0 {
				return nil, fmt.Errorf("search: posting for %q has non-positive tf %d", t, p.TF)
			}
			dst = append(dst, posting{doc: p.Doc, tf: p.TF})
			idx.docLen[p.Doc] += int(p.TF)
			cf += int(p.TF)
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i].doc < dst[j].doc })
		sh := &idx.shards[idx.shardFor(t)]
		sh.postings[t] = dst
		sh.collFreq[t] = cf
		sh.totalToks += cf
		idx.totalToks += cf
	}
	idx.numTerms = len(terms)
	idx.setScoreBounds()
	return idx, nil
}
