// Package classify implements the aspect classifiers that materialize the
// relevance function Y (paper §I "Input", §VI-A "Entity aspects").
//
// The paper trains one CRF per aspect to classify paragraphs as relevant or
// not, reports their accuracy (Fig. 9, 0.85–0.99), and then *takes the
// classifier output as ground truth* for the harvesting experiments. We
// mirror that protocol with one classifier per aspect — multinomial Naive
// Bayes by default, the paper's linear-chain CRF on request: train on the
// domain split's generator-labeled paragraphs, report accuracy against
// generator labels, and use predictions as Y during harvesting.
package classify

import (
	"math"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/crf"
	"l2q/internal/par"
	"l2q/internal/textproc"
)

// RelevanceThreshold is the fraction of relevant paragraphs a page needs to
// count as relevant to an aspect, both for generator ground truth and for
// classifier-materialized Y. Pages in the synthetic corpus devote ~60% of
// paragraphs to their primary aspect and ≤25% to any minor aspect, so 0.3
// cleanly separates "page about the aspect" from "page that mentions it".
const RelevanceThreshold = 0.3

// GroundTruth reports whether the page is relevant to the aspect under the
// generator's paragraph labels. Only tests and the evaluation harness use
// this; harvesting methods see classifier output exclusively.
func GroundTruth(p *corpus.Page, a corpus.Aspect) bool {
	return p.AspectFraction(a) >= RelevanceThreshold
}

// Classifier is one aspect's paragraph classifier: a binary multinomial
// Naive Bayes model with add-one smoothing (Train, TrainSet), or a binary
// linear-chain CRF over the page's paragraph sequence (TrainCRF,
// TrainCRFSet). The two models differ only in how they label a page's
// paragraphs (labels); Y's page rule and the accuracy are written once
// over that. The zero value is not usable.
type Classifier struct {
	Aspect corpus.Aspect

	// The Naive Bayes parameters, unused when chain is set.
	logPrior [2]float64 // class log-priors: index 1 = relevant
	logLik   [2]map[textproc.Token]float64
	logUnk   [2]float64 // unseen-token log-likelihood per class

	// chain is the CRF and feats its frozen feature map; nil for Naive
	// Bayes.
	chain *crf.Model
	feats *crf.FeatureMap
}

// Train fits a classifier for aspect a from the paragraphs of the given
// pages, using generator labels as supervision (a paragraph is a positive
// example iff its label equals a). Returns nil if either class is empty.
// It is TrainSet for one aspect: the same counting pass, one derivation.
func Train(a corpus.Aspect, pages []*corpus.Page) *Classifier {
	return CountLabels(pages).TrainSet([]corpus.Aspect{a}).ByAspect[a]
}

// LabelCounts is what every aspect's classifier is derived from: one walk
// over the corpus tallies each token under its paragraph's label (the
// filler label "" included) in dense per-label rows, indexed through one
// token→index map. An aspect's positive class is its label's row; its
// negative class is the corpus totals minus that row. The integers are the
// ones a per-aspect count would reach, so the derived floats are too.
type LabelCounts struct {
	index  map[textproc.Token]int // token → index
	vocab  []textproc.Token       // token index → token
	rows   map[corpus.Aspect]int  // paragraph label → row
	counts [][]int                // [row][token index] occurrences
	all    []int                  // [token index] occurrences under any label
	docs   []int                  // [row] paragraphs
	tokens []int                  // [row] token occurrences

	allDocs, allTokens int
}

// NewLabelCounts returns empty counts for Add to fill.
func NewLabelCounts() *LabelCounts {
	return &LabelCounts{index: make(map[textproc.Token]int), rows: make(map[corpus.Aspect]int)}
}

// CountLabels makes the one counting pass over the pages' paragraphs
// (corpus.Scan: each page read once, none left tokenized).
func CountLabels(pages []*corpus.Page) *LabelCounts {
	lc := NewLabelCounts()
	corpus.Scan(pages, lc.Add)
	return lc
}

// Add counts paragraph i of page p, whose tokens are toks, under its
// label. It is a corpus.ParaVisitor, so the counting pass can ride another
// whole-corpus pass (search.BuildIndex's) instead of tokenizing the pages
// again.
func (lc *LabelCounts) Add(_ int, p *corpus.Page, i int, toks []textproc.Token) {
	label := p.Paras[i].Aspect
	row, ok := lc.rows[label]
	if !ok {
		row = len(lc.counts)
		lc.rows[label] = row
		lc.counts = append(lc.counts, nil)
		lc.docs = append(lc.docs, 0)
		lc.tokens = append(lc.tokens, 0)
	}
	lc.docs[row]++
	lc.tokens[row] += len(toks)
	counts := lc.counts[row]
	for _, t := range toks {
		j, ok := lc.index[t]
		if !ok {
			j = len(lc.vocab)
			lc.index[t] = j
			lc.vocab = append(lc.vocab, t)
		}
		for len(counts) <= j {
			counts = append(counts, 0)
		}
		counts[j]++
	}
	lc.counts[row] = counts
}

// totals pads every row to the vocabulary and sums the rows into the
// corpus totals; what the derivation reads, recomputed from the rows so
// it can run again after more Adds.
func (lc *LabelCounts) totals() {
	lc.all = make([]int, len(lc.vocab))
	lc.allDocs, lc.allTokens = 0, 0
	for row, counts := range lc.counts {
		lc.counts[row] = append(counts, make([]int, len(lc.vocab)-len(counts))...)
		for j, n := range counts {
			lc.all[j] += n
		}
		lc.allDocs += lc.docs[row]
		lc.allTokens += lc.tokens[row]
	}
}

// classifier derives aspect a's classifier from the counts: nil when no
// paragraph carries a, or every paragraph does. The totals must be
// current.
func (lc *LabelCounts) classifier(a corpus.Aspect) *Classifier {
	row, ok := lc.rows[a]
	if !ok || lc.docs[row] == lc.allDocs {
		return nil
	}
	pos := lc.counts[row]
	nDocs := [2]int{lc.allDocs - lc.docs[row], lc.docs[row]}
	totals := [2]int{lc.allTokens - lc.tokens[row], lc.tokens[row]}
	seen := [2]int{}
	for j, n := range pos {
		if n > 0 {
			seen[1]++
		}
		if lc.all[j] > n {
			seen[0]++
		}
	}

	c := &Classifier{Aspect: a}
	v := float64(len(lc.vocab))
	total := float64(lc.allDocs)
	var denom [2]float64
	for cls := 0; cls < 2; cls++ {
		c.logPrior[cls] = math.Log(float64(nDocs[cls]) / total)
		denom[cls] = float64(totals[cls]) + v + 1
		c.logUnk[cls] = math.Log(1 / denom[cls])
		c.logLik[cls] = make(map[textproc.Token]float64, seen[cls])
	}
	for j, t := range lc.vocab {
		if n := lc.all[j] - pos[j]; n > 0 {
			c.logLik[0][t] = math.Log((float64(n) + 1) / denom[0])
		}
		if n := pos[j]; n > 0 {
			c.logLik[1][t] = math.Log((float64(n) + 1) / denom[1])
		}
	}
	return c
}

// Params is the trained state of a Naive Bayes Classifier, exported so a
// persistence layer (internal/store's domain artifact) can round-trip
// classifiers exactly: the float64 parameters are carried verbatim, so a
// restored classifier predicts byte-identically to the trained one.
type Params struct {
	Aspect   corpus.Aspect
	LogPrior [2]float64
	LogUnk   [2]float64
	LogLik   [2]map[textproc.Token]float64
}

// Params exposes a Naive Bayes classifier's trained parameters; ok is
// false for a CRF, which Params cannot carry. The maps are the
// classifier's own — callers must not mutate them.
func (c *Classifier) Params() (p Params, ok bool) {
	if c.chain != nil {
		return Params{}, false
	}
	return Params{Aspect: c.Aspect, LogPrior: c.logPrior, LogUnk: c.logUnk, LogLik: c.logLik}, true
}

// FromParams reconstructs a Classifier from persisted parameters.
func FromParams(p Params) *Classifier {
	return &Classifier{Aspect: p.Aspect, logPrior: p.LogPrior, logLik: p.LogLik, logUnk: p.LogUnk}
}

// scoreClass returns the joint log-probability of the tokens under a class.
func (c *Classifier) scoreClass(tokens []textproc.Token, cls int) float64 {
	s := c.logPrior[cls]
	lik := c.logLik[cls]
	for _, t := range tokens {
		if lp, ok := lik[t]; ok {
			s += lp
		} else {
			s += c.logUnk[cls]
		}
	}
	return s
}

// labels hands yield every paragraph of the page with its predicted
// label, reading paragraph i's tokens through tokens: Naive Bayes labels
// each paragraph on its own, the CRF decodes the page's paragraph
// sequence.
func (c *Classifier) labels(p *corpus.Page, tokens func(i int) []textproc.Token, yield func(i int, relevant bool)) {
	if c.chain == nil {
		for i := range p.Paras {
			toks := tokens(i)
			yield(i, c.scoreClass(toks, 1) > c.scoreClass(toks, 0))
		}
		return
	}
	seq := make([][]int, len(p.Paras))
	for i := range p.Paras {
		seq[i] = paraFeatures(c.feats, tokens(i))
	}
	for i, l := range c.chain.Decode(seq) {
		yield(i, l == 1)
	}
}

// PageScore returns the fraction of the page's paragraphs predicted
// relevant — the real-valued page relevance the paper mentions as the
// generalization of binary Y.
func (c *Classifier) PageScore(p *corpus.Page) float64 {
	if len(p.Paras) == 0 {
		return 0
	}
	n := 0
	c.labels(p, p.ParaTokens, func(_ int, relevant bool) {
		if relevant {
			n++
		}
	})
	return float64(n) / float64(len(p.Paras))
}

// PageRelevant materializes the binary Y(p): the page is relevant iff at
// least RelevanceThreshold of its paragraphs are predicted relevant.
func (c *Classifier) PageRelevant(p *corpus.Page) bool {
	return c.PageScore(p) >= RelevanceThreshold
}

// Accuracy measures paragraph-level accuracy against generator labels —
// the number Fig. 9 reports per aspect.
func (c *Classifier) Accuracy(pages []*corpus.Page) float64 {
	correct, total := 0, 0
	var buf []textproc.Token
	for _, p := range pages {
		scan := func(i int) []textproc.Token { return p.ScanParaTokens(i, &buf) }
		c.labels(p, scan, func(i int, relevant bool) {
			if relevant == (p.Paras[i].Aspect == c.Aspect) {
				correct++
			}
			total++
		})
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Set holds one trained classifier per target aspect plus a page-level
// prediction cache (harvesting re-classifies the same pages every
// iteration; the cache keeps that O(1) after first touch). Set is safe for
// concurrent use.
type Set struct {
	ByAspect map[corpus.Aspect]*Classifier

	mu    sync.RWMutex
	cache map[cacheKey]bool
}

type cacheKey struct {
	a  corpus.Aspect
	id corpus.PageID
}

// TrainSet trains a classifier for every aspect on the given pages.
// Aspects whose training data is degenerate are silently skipped (callers
// can check membership). The corpus is counted once for all aspects
// (CountLabels); each aspect's classifier is then derived from the counts,
// in parallel (par.For), so the result is identical to a serial Train per
// aspect.
func TrainSet(aspects []corpus.Aspect, pages []*corpus.Page) *Set {
	return CountLabels(pages).TrainSet(aspects)
}

// TrainSet derives a classifier for every aspect from the counts taken so
// far, as the package-level TrainSet does from its own pass.
func (lc *LabelCounts) TrainSet(aspects []corpus.Aspect) *Set {
	lc.totals()
	cs := make([]*Classifier, len(aspects))
	par.For(len(aspects), func(i int) {
		cs[i] = lc.classifier(aspects[i])
	})
	return NewSet(cs)
}

// NewSet wraps already-trained classifiers (e.g. restored from a
// persisted domain artifact, store.LoadDomains) into a Set with a fresh
// prediction cache, keyed by their aspects. Nil entries are skipped.
func NewSet(cs []*Classifier) *Set {
	s := &Set{
		ByAspect: make(map[corpus.Aspect]*Classifier, len(cs)),
		cache:    make(map[cacheKey]bool),
	}
	for _, c := range cs {
		if c != nil {
			s.ByAspect[c.Aspect] = c
		}
	}
	return s
}

// Relevant reports classifier-materialized Y(p) for an aspect, cached by
// page ID. Panics if no classifier exists for the aspect (programmer
// error: harvesting an untrained aspect).
func (s *Set) Relevant(a corpus.Aspect, p *corpus.Page) bool {
	k := cacheKey{a: a, id: p.ID}
	s.mu.RLock()
	v, ok := s.cache[k]
	s.mu.RUnlock()
	if ok {
		return v
	}
	c, ok := s.ByAspect[a]
	if !ok {
		panic("classify: no classifier for aspect " + string(a))
	}
	v = c.PageRelevant(p)
	s.mu.Lock()
	s.cache[k] = v
	s.mu.Unlock()
	return v
}

// YFunc returns the page-relevance function for an aspect, suitable for
// handing to the core as the materialized Y.
func (s *Set) YFunc(a corpus.Aspect) func(*corpus.Page) bool {
	return func(p *corpus.Page) bool { return s.Relevant(a, p) }
}

// Has reports whether the aspect has a trained classifier.
func (s *Set) Has(a corpus.Aspect) bool {
	_, ok := s.ByAspect[a]
	return ok
}

// AccuracyOf measures an aspect's paragraph accuracy on pages.
func (s *Set) AccuracyOf(a corpus.Aspect, pages []*corpus.Page) float64 {
	c, ok := s.ByAspect[a]
	if !ok {
		return 0
	}
	return c.Accuracy(pages)
}
