// Package search implements the retrieval substrate: an inverted index and
// a query-likelihood language model with Dirichlet smoothing, which is the
// exact retrieval model the paper uses over its fixed corpus (§VI-A: "we
// used a language model with Dirichlet smoothing as the search engine. For
// each query, pages in the corpus are ranked and the top 5 are returned").
//
// The index is one term dictionary over one array of posting lists; the
// engine scores a query with one exact max-score pass (scorer.go: only
// documents that can still enter the fixed-size top-K heap are scored) and
// fronts it with an S3-FIFO query-result cache (cache.go). All of this is ranking-neutral:
// every cache state returns the same results, bit for bit, as the retained
// score-everything reference path (Engine.SearchReference), which
// differential tests and a fuzz target enforce. Query likelihood is the
// only ranking function: every committed number was produced with it, and
// DESIGN.md "Not building: a second ranking function" says what the BM25
// this package once carried beside it cost.
package search

import (
	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// posting records one document's term frequency for a token.
type posting struct {
	doc int32 // index into Index.docs
	tf  int32
}

// postingList is one token's postings, strictly ascending by document
// ordinal, with the two summaries every reader wants beside them: the
// largest term frequency among them — with Index.minDocLen, what the
// scorer's pruning bound is built from — and their sum, the token's
// collection frequency. Both are filled as the postings are appended
// (BuildIndex, RestoreIndex), so neither can disagree with the postings it
// summarizes.
type postingList struct {
	posts    []posting
	maxTf    int32
	collFreq int
}

// Index is an immutable inverted index over a fixed page collection: a
// term dictionary mapping each token to its ordinal in one array of posting
// lists, so every per-token read is a single map probe. Build it once;
// concurrent reads are safe.
type Index struct {
	docs      []*corpus.Page
	docLen    []int
	terms     map[textproc.Token]int32
	lists     []postingList
	totalToks int
	// minDocLen is the length of the shortest non-empty document (0 for
	// an index without one): no document on any posting list is shorter.
	minDocLen int
}

// newIndex returns an index over pages with no postings yet and room for
// nTerms posting lists (0 when unknown); its constructor fills terms, lists
// and docLen, and ends with sumDocLens.
func newIndex(pages []*corpus.Page, nTerms int) *Index {
	return &Index{
		docs:   pages,
		docLen: make([]int, len(pages)),
		terms:  make(map[textproc.Token]int32, nTerms),
		lists:  make([]postingList, 0, nTerms),
	}
}

// sumDocLens derives the collection length and minDocLen from the document
// lengths.
func (idx *Index) sumDocLens() {
	for _, n := range idx.docLen {
		idx.totalToks += n
		if n > 0 && (idx.minDocLen == 0 || n < idx.minDocLen) {
			idx.minDocLen = n
		}
	}
}

// listFor returns the token's posting list (zero when absent).
func (idx *Index) listFor(t textproc.Token) postingList {
	if i, ok := idx.terms[t]; ok {
		return idx.lists[i]
	}
	return postingList{}
}

// BuildIndex indexes the given pages. Page order is preserved and ties in
// ranking are broken by that order, keeping results deterministic. It is
// the only function that counts terms: every index over pages, from a live
// engine's memtable to the whole served corpus, comes from this one serial
// pass, so an index's layout depends on its pages alone — lists are
// numbered in order of first occurrence. The pass is corpus.Scan: it reads
// each page's tokens once and keeps none of them, so indexing a page that
// has not been tokenized leaves it untokenized and the index holds
// postings only. also are further visitors that ride the same pass and see
// the same tokens (a boot that trains classifiers as it indexes, so no
// page is tokenized twice). A parallel count, if one is ever wanted, is
// chosen in here from len(pages) and justified on the benchmark's setup_s,
// never by an option (DESIGN.md "One layout, one builder" has the
// measurement that removed the last one).
func BuildIndex(pages []*corpus.Page, also ...corpus.ParaVisitor) *Index {
	idx := newIndex(pages, 0)
	corpus.Scan(pages, append([]corpus.ParaVisitor{idx.count}, also...)...)
	idx.sumDocLens()
	return idx
}

// count adds one paragraph of document doc to the postings. Documents
// arrive in ascending order, so a token's open posting is always its
// list's last: counting needs one dictionary probe per occurrence and no
// per-document histogram.
func (idx *Index) count(doc int, _ *corpus.Page, _ int, toks []textproc.Token) {
	idx.docLen[doc] += len(toks)
	for _, t := range toks {
		i, ok := idx.terms[t]
		if !ok {
			i = int32(len(idx.lists))
			idx.terms[t] = i
			idx.lists = append(idx.lists, postingList{})
		}
		pl := &idx.lists[i]
		if n := len(pl.posts); n == 0 || pl.posts[n-1].doc != int32(doc) {
			pl.posts = append(pl.posts, posting{doc: int32(doc)})
		}
		last := &pl.posts[len(pl.posts)-1]
		last.tf++
		pl.maxTf = max(pl.maxTf, last.tf)
		pl.collFreq++
	}
}

// NumDocs returns the number of indexed pages.
func (idx *Index) NumDocs() int { return len(idx.docs) }

// NumTerms returns the vocabulary size.
func (idx *Index) NumTerms() int { return len(idx.lists) }

// TotalTokens returns the collection length in tokens.
func (idx *Index) TotalTokens() int { return idx.totalToks }

// CollectionFreq returns the token's total frequency in the collection.
func (idx *Index) CollectionFreq(t textproc.Token) int { return idx.listFor(t).collFreq }

// Doc returns the i-th indexed page.
func (idx *Index) Doc(i int) *corpus.Page { return idx.docs[i] }

// Terms calls f for every distinct indexed token with its collection
// frequency. Iteration order is unspecified (the dictionary is a hash
// map); callers needing a deterministic order must collect and sort.
func (idx *Index) Terms(f func(t textproc.Token, collFreq int)) {
	for t, i := range idx.terms {
		f(t, idx.lists[i].collFreq)
	}
}
