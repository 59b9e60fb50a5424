// Package classify implements the aspect classifiers that materialize the
// relevance function Y (paper §I "Input", §VI-A "Entity aspects").
//
// The paper trains one CRF per aspect to classify paragraphs as relevant or
// not, reports their accuracy (Fig. 9, 0.85–0.99), and then *takes the
// classifier output as ground truth* for the harvesting experiments. We
// mirror that protocol with a multinomial Naive Bayes classifier per aspect:
// train on the domain split's generator-labeled paragraphs, report accuracy
// against generator labels, and use predictions as Y during harvesting.
package classify

import (
	"math"
	"sync"

	"l2q/internal/corpus"
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

// Classifier is a binary multinomial Naive Bayes paragraph classifier for
// one aspect, with add-one smoothing. Build with Train; the zero value is
// not usable.
type Classifier struct {
	Aspect corpus.Aspect

	logPrior [2]float64 // class log-priors: index 1 = relevant
	logLik   [2]map[textproc.Token]float64
	logUnk   [2]float64 // unseen-token log-likelihood per class
}

// Train fits a classifier for aspect a from the paragraphs of the given
// pages, using generator labels as supervision (a paragraph is a positive
// example iff its label equals a). Returns nil if either class is empty.
func Train(a corpus.Aspect, pages []*corpus.Page) *Classifier {
	counts := [2]map[textproc.Token]int{make(map[textproc.Token]int), make(map[textproc.Token]int)}
	totals := [2]int{}
	nDocs := [2]int{}
	vocab := make(map[textproc.Token]struct{})

	for _, p := range pages {
		for i := range p.Paras {
			para := &p.Paras[i]
			cls := 0
			if para.Aspect == a {
				cls = 1
			}
			nDocs[cls]++
			for _, t := range para.Tokens {
				counts[cls][t]++
				totals[cls]++
				vocab[t] = struct{}{}
			}
		}
	}
	if nDocs[0] == 0 || nDocs[1] == 0 {
		return nil
	}

	c := &Classifier{Aspect: a}
	v := float64(len(vocab))
	total := float64(nDocs[0] + nDocs[1])
	for cls := 0; cls < 2; cls++ {
		c.logPrior[cls] = math.Log(float64(nDocs[cls]) / total)
		denom := float64(totals[cls]) + v + 1
		c.logUnk[cls] = math.Log(1 / denom)
		lik := make(map[textproc.Token]float64, len(counts[cls]))
		for t, n := range counts[cls] {
			lik[t] = math.Log((float64(n) + 1) / denom)
		}
		c.logLik[cls] = lik
	}
	return c
}

// Params is the trained state of a Classifier, exported so a persistence
// layer (internal/store's domain artifact) can round-trip classifiers
// exactly: the float64 parameters are carried verbatim, so a restored
// classifier predicts byte-identically to the trained one.
type Params struct {
	Aspect   corpus.Aspect
	LogPrior [2]float64
	LogUnk   [2]float64
	LogLik   [2]map[textproc.Token]float64
}

// Params exposes the classifier's trained parameters. The maps are the
// classifier's own — callers must not mutate them.
func (c *Classifier) Params() Params {
	return Params{Aspect: c.Aspect, LogPrior: c.logPrior, LogUnk: c.logUnk, LogLik: c.logLik}
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

// PredictPara reports whether a paragraph (token slice) is relevant.
func (c *Classifier) PredictPara(tokens []textproc.Token) bool {
	return c.scoreClass(tokens, 1) > c.scoreClass(tokens, 0)
}

// PageScore returns the fraction of the page's paragraphs predicted
// relevant — the real-valued page relevance the paper mentions as the
// generalization of binary Y.
func (c *Classifier) PageScore(p *corpus.Page) float64 {
	if len(p.Paras) == 0 {
		return 0
	}
	n := 0
	for i := range p.Paras {
		if c.PredictPara(p.Paras[i].Tokens) {
			n++
		}
	}
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
	for _, p := range pages {
		for i := range p.Paras {
			para := &p.Paras[i]
			want := para.Aspect == c.Aspect
			got := c.PredictPara(para.Tokens)
			if got == want {
				correct++
			}
			total++
		}
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
// can check membership). Aspects are independent and train in parallel
// (par.For), so the result is identical to serial training.
func TrainSet(aspects []corpus.Aspect, pages []*corpus.Page) *Set {
	cs := make([]*Classifier, len(aspects))
	par.For(len(aspects), func(i int) {
		cs[i] = Train(aspects[i], pages)
	})
	s := &Set{
		ByAspect: make(map[corpus.Aspect]*Classifier, len(aspects)),
		cache:    make(map[cacheKey]bool),
	}
	for i, a := range aspects {
		if cs[i] != nil {
			s.ByAspect[a] = cs[i]
		}
	}
	return s
}

// NewSet wraps already-trained classifiers (e.g. restored from a
// persisted domain artifact, store.LoadDomains) into a Set with a fresh
// prediction cache. Nil entries are skipped.
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
