// Package search implements the retrieval substrate: a sharded inverted
// index and a query-likelihood language model with Dirichlet smoothing,
// which is the exact retrieval model the paper uses over its fixed corpus
// (§VI-A: "we used a language model with Dirichlet smoothing as the search
// engine. For each query, pages in the corpus are ranked and the top 5 are
// returned").
//
// The index is split into token-hash shards so it can be built in parallel;
// the engine scores a query with one exact max-score pass (scorer.go: only
// documents that can still enter the fixed-size top-K heap are scored) and
// fronts it with an LRU query-result cache. All of this is ranking-neutral:
// every shard count and cache state returns the same results, bit for bit,
// as the retained score-everything reference path (Engine.SearchReference),
// which differential tests and a fuzz target enforce.
//
// It also provides a Fetcher that simulates remote page-download latency so
// the Fig. 14 selection-vs-fetch comparison can be regenerated.
package search

import (
	"runtime"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// posting records one document's term frequency for a token.
type posting struct {
	doc int32 // index into Index.docs
	tf  int32
}

// postingList is one token's postings, ascending by document ordinal,
// with the largest term frequency among them — with Index.minDocLen, what
// the scorer's pruning bound is built from (see setScoreBounds).
type postingList struct {
	posts []posting
	maxTf int32
}

// indexShard holds the postings and collection frequencies for the tokens
// that hash to it. Splitting the term space this way lets BuildIndexOpts
// populate shards concurrently without locks and keeps per-map sizes small.
type indexShard struct {
	postings map[textproc.Token][]posting
	collFreq map[textproc.Token]int
	// maxTf is each posting list's largest term frequency (see
	// setScoreBounds); a map beside postings, not a field of its values,
	// so the builders keep their one-map-operation append.
	maxTf map[textproc.Token]int32
	// totalToks is the collection mass owned by this shard's tokens;
	// the shard totals sum to Index.totalToks.
	totalToks int
}

// Index is an immutable inverted index over a fixed page collection, split
// into token-hash shards. Build it once; concurrent reads are safe.
type Index struct {
	docs      []*corpus.Page
	docLen    []int
	shards    []indexShard
	totalToks int
	numTerms  int
	// minDocLen is the length of the shortest non-empty document (0 for
	// an index without one): no document on any posting list is shorter.
	minDocLen int
}

// shardFor maps a token to its shard ordinal with the cluster ring's
// FNV-1a, never maphash, whose seed is process-local: the token→shard
// mapping is the same in every process, run and index with an equal shard
// count (restored indexes included), so the memory layout a query walks
// does not change from one server start to the next.
func (idx *Index) shardFor(t textproc.Token) int {
	if len(idx.shards) == 1 {
		return 0
	}
	return int(fnvHash(t) % uint64(len(idx.shards)))
}

// postingsFor returns the token's postings (nil when absent), sorted by
// ascending document ordinal.
func (idx *Index) postingsFor(t textproc.Token) []posting {
	return idx.shards[idx.shardFor(t)].postings[t]
}

// listFor returns the token's posting list with its maxTf (zero when
// absent).
func (idx *Index) listFor(t textproc.Token) postingList {
	sh := &idx.shards[idx.shardFor(t)]
	return postingList{posts: sh.postings[t], maxTf: sh.maxTf[t]}
}

// setScoreBounds derives what the scorer's pruning bound reads from the
// assembled index: every posting list's maxTf and the index's minDocLen.
// Every constructor ends with it, so the two can never disagree with the
// postings and document lengths they summarize.
func (idx *Index) setScoreBounds() {
	idx.minDocLen = 0
	for _, n := range idx.docLen {
		if n > 0 && (idx.minDocLen == 0 || n < idx.minDocLen) {
			idx.minDocLen = n
		}
	}
	for s := range idx.shards {
		sh := &idx.shards[s]
		sh.maxTf = make(map[textproc.Token]int32, len(sh.postings))
		for t, posts := range sh.postings {
			var m int32
			for _, p := range posts {
				m = max(m, p.tf)
			}
			sh.maxTf[t] = m
		}
	}
}

// BuildIndex indexes the given pages with default options (shards =
// GOMAXPROCS). Page order is preserved and ties in ranking are broken by
// that order, keeping results deterministic.
func BuildIndex(pages []*corpus.Page) *Index {
	return BuildIndexOpts(pages, Options{})
}

// shardEntry is one (token, document, frequency) triple routed to a shard
// during the parallel counting phase.
type shardEntry struct {
	tok textproc.Token
	doc int32
	tf  int32
}

// BuildIndexOpts indexes the given pages across opts.Shards token-hash
// shards. The build runs in two parallel phases — per-document term
// counting over contiguous document ranges, then per-shard posting
// assembly — and produces an index whose observable state (postings,
// frequencies, statistics) is independent of the shard count and of
// scheduling. Intermediate state is O(ranges × shards) flat buffers (one
// entry per distinct document–term pair), not per-document buckets, so
// memory overhead stays proportional to the postings themselves.
func BuildIndexOpts(pages []*corpus.Page, opts Options) *Index {
	opts = opts.withDefaults()
	nShards := opts.Shards
	idx := &Index{
		docs:   pages,
		docLen: make([]int, len(pages)),
		shards: make([]indexShard, nShards),
	}
	if len(pages) == 0 {
		for s := range idx.shards {
			idx.shards[s].postings = make(map[textproc.Token][]posting)
			idx.shards[s].collFreq = make(map[textproc.Token]int)
		}
		return idx
	}

	// Phase 1: each worker owns a contiguous document range, tokenizes
	// and counts terms (Page.Tokens caches under sync.Once), and routes
	// every (token, doc, tf) entry to a per-(range, shard) buffer.
	// Ranges are processed in document order within a worker, so every
	// buffer's entries are doc-ordinal-ascending.
	nRanges := runtime.GOMAXPROCS(0)
	if nRanges > len(pages) {
		nRanges = len(pages)
	}
	if nRanges < 1 {
		nRanges = 1
	}
	perRange := make([][][]shardEntry, nRanges)
	var wg sync.WaitGroup
	for r := 0; r < nRanges; r++ {
		lo := len(pages) * r / nRanges
		hi := len(pages) * (r + 1) / nRanges
		wg.Add(1)
		go func(r, lo, hi int) {
			defer wg.Done()
			bufs := make([][]shardEntry, nShards)
			for di := lo; di < hi; di++ {
				toks := idx.docs[di].Tokens()
				idx.docLen[di] = len(toks)
				tf := make(map[textproc.Token]int32, len(toks))
				for _, t := range toks {
					tf[t]++
				}
				for t, n := range tf {
					s := idx.shardFor(t)
					bufs[s] = append(bufs[s], shardEntry{tok: t, doc: int32(di), tf: n})
				}
			}
			perRange[r] = bufs
		}(r, lo, hi)
	}
	wg.Wait()
	for _, n := range idx.docLen {
		idx.totalToks += n
	}

	// Phase 2: assemble each shard's postings by concatenating its
	// buffers in range order — ranges are contiguous and internally
	// doc-ascending, so every posting list comes out sorted by document
	// ordinal without a sort pass. Shards are disjoint, so this phase
	// parallelizes over shards without locks.
	var swg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		swg.Add(1)
		go func(s int) {
			defer swg.Done()
			sh := &idx.shards[s]
			sh.postings = make(map[textproc.Token][]posting)
			sh.collFreq = make(map[textproc.Token]int)
			for r := 0; r < nRanges; r++ {
				for _, e := range perRange[r][s] {
					sh.postings[e.tok] = append(sh.postings[e.tok], posting{doc: e.doc, tf: e.tf})
					sh.collFreq[e.tok] += int(e.tf)
					sh.totalToks += int(e.tf)
				}
			}
		}(s)
	}
	swg.Wait()
	for s := range idx.shards {
		idx.numTerms += len(idx.shards[s].postings)
	}
	idx.setScoreBounds()
	return idx
}

// Reshard returns an index with the same postings redistributed across the
// given shard count (resolved like Options.Shards). Posting slices are
// immutable and shared with the receiver, so this is a map-redistribution
// pass, not a rebuild — cheap enough to re-layout an index restored from a
// store file. Rankings are unaffected.
func (idx *Index) Reshard(shards int) *Index {
	opts := Options{Shards: shards}.withDefaults()
	if opts.Shards == len(idx.shards) {
		return idx
	}
	out := &Index{
		docs:      idx.docs,
		docLen:    idx.docLen,
		shards:    make([]indexShard, opts.Shards),
		totalToks: idx.totalToks,
		numTerms:  idx.numTerms,
	}
	for s := range out.shards {
		out.shards[s].postings = make(map[textproc.Token][]posting)
		out.shards[s].collFreq = make(map[textproc.Token]int)
	}
	for s := range idx.shards {
		for t, posts := range idx.shards[s].postings {
			dst := &out.shards[out.shardFor(t)]
			dst.postings[t] = posts
			cf := idx.shards[s].collFreq[t]
			dst.collFreq[t] = cf
			dst.totalToks += cf
		}
	}
	out.setScoreBounds()
	return out
}

// NumDocs returns the number of indexed pages.
func (idx *Index) NumDocs() int { return len(idx.docs) }

// NumTerms returns the vocabulary size.
func (idx *Index) NumTerms() int { return idx.numTerms }

// NumShards returns the index's shard count.
func (idx *Index) NumShards() int { return len(idx.shards) }

// TotalTokens returns the collection length in tokens.
func (idx *Index) TotalTokens() int { return idx.totalToks }

// DocFreq returns the number of documents containing the token.
func (idx *Index) DocFreq(t textproc.Token) int { return len(idx.postingsFor(t)) }

// CollectionFreq returns the token's total frequency in the collection.
func (idx *Index) CollectionFreq(t textproc.Token) int {
	return idx.shards[idx.shardFor(t)].collFreq[t]
}

// Doc returns the i-th indexed page.
func (idx *Index) Doc(i int) *corpus.Page { return idx.docs[i] }

// Terms calls f for every distinct indexed token with its document and
// collection frequencies. Iteration order is unspecified (shards are hash
// maps); callers needing a deterministic order must collect and sort.
func (idx *Index) Terms(f func(t textproc.Token, docFreq, collFreq int)) {
	for s := range idx.shards {
		sh := &idx.shards[s]
		for t, posts := range sh.postings {
			f(t, len(posts), sh.collFreq[t])
		}
	}
}
