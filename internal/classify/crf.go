package classify

import (
	"sort"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/crf"
	"l2q/internal/par"
	"l2q/internal/textproc"
)

// CRFClassifier is the paper-faithful alternative to the Naive Bayes
// Classifier: a binary linear-chain CRF over each page's paragraph
// sequence (§VI-A trains "one classifier for each Y based on conditional
// random fields"). Unlike NB, it exploits the fact that paragraphs about
// the same aspect come in runs within a page.
//
// Both classifier families satisfy PageClassifier, so the harvesting
// pipeline can materialize Y from either.
type CRFClassifier struct {
	Aspect corpus.Aspect

	model *crf.Model
	feats *crf.FeatureMap
}

// PageClassifier is the interface both classifier families implement: it
// is everything the harvesting pipeline needs from a materialized Y.
type PageClassifier interface {
	// PageRelevant materializes the binary Y(p).
	PageRelevant(p *corpus.Page) bool
	// PageScore is the real-valued relevance generalization.
	PageScore(p *corpus.Page) float64
	// Accuracy is paragraph-level accuracy against generator labels.
	Accuracy(pages []*corpus.Page) float64
}

var (
	_ PageClassifier = (*Classifier)(nil)
	_ PageClassifier = (*CRFClassifier)(nil)
)

// YProvider is the per-aspect classifier-set interface shared by the
// Naive Bayes Set and the CRFSet, letting the public API swap families.
type YProvider interface {
	// Relevant reports cached classifier-materialized Y(p).
	Relevant(a corpus.Aspect, p *corpus.Page) bool
	// YFunc returns the page-relevance function for an aspect.
	YFunc(a corpus.Aspect) func(*corpus.Page) bool
	// Has reports whether the aspect has a trained classifier.
	Has(a corpus.Aspect) bool
	// AccuracyOf measures an aspect's paragraph accuracy on pages
	// (0 for untrained aspects).
	AccuracyOf(a corpus.Aspect, pages []*corpus.Page) float64
}

var (
	_ YProvider = (*Set)(nil)
	_ YProvider = (*CRFSet)(nil)
)

// Has reports whether the aspect has a trained CRF.
func (s *CRFSet) Has(a corpus.Aspect) bool {
	_, ok := s.ByAspect[a]
	return ok
}

// AccuracyOf measures an aspect's paragraph accuracy on pages.
func (s *CRFSet) AccuracyOf(a corpus.Aspect, pages []*corpus.Page) float64 {
	c, ok := s.ByAspect[a]
	if !ok {
		return 0
	}
	return c.Accuracy(pages)
}

// TrainCRF fits a CRF for aspect a on the given pages (one training
// sequence per page, a paragraph is positive iff its generator label
// equals a). cfg zero value uses crf.DefaultTrainConfig. Returns nil if
// either class is absent from the training data. It is TrainCRFSet for one
// aspect: the same feature extraction, one training run.
func TrainCRF(a corpus.Aspect, pages []*corpus.Page, cfg crf.TrainConfig) *CRFClassifier {
	return extractCRF(pages).train(a, cfg)
}

// crfData is what every aspect's CRF trains on: the pages with
// paragraphs, one feature row per paragraph and the frozen feature map
// the rows index. Features do not depend on the aspect, so one extraction
// serves them all; training only reads it, and a frozen FeatureMap's ID
// only reads too, so trained classifiers share the map.
type crfData struct {
	fm    *crf.FeatureMap
	pages []*corpus.Page // the pages with paragraphs, in order
	feats [][][]int      // [page][paragraph] features
}

// extractCRF extracts every paragraph's features once.
func extractCRF(pages []*corpus.Page) *crfData {
	d := &crfData{fm: crf.NewFeatureMap()}
	var buf []textproc.Token
	for _, p := range pages {
		if len(p.Paras) == 0 {
			continue
		}
		rows := make([][]int, len(p.Paras))
		for i := range p.Paras {
			rows[i] = paraFeatures(d.fm, p.ScanParaTokens(i, &buf))
		}
		d.pages = append(d.pages, p)
		d.feats = append(d.feats, rows)
	}
	d.fm.Freeze()
	return d
}

// train fits aspect a's CRF on the shared features, building only its
// label vectors.
func (d *crfData) train(a corpus.Aspect, cfg crf.TrainConfig) *CRFClassifier {
	examples := make([]crf.Example, len(d.pages))
	seen := [2]bool{}
	for k, p := range d.pages {
		labels := make([]crf.Label, len(p.Paras))
		for i := range p.Paras {
			if p.Paras[i].Aspect == a {
				labels[i] = 1
			}
			seen[labels[i]] = true
		}
		examples[k] = crf.Example{Feats: d.feats[k], Labels: labels}
	}
	if !seen[0] || !seen[1] || d.fm.Len() == 0 {
		return nil
	}
	model, err := crf.Train(examples, d.fm.Len(), cfg)
	if err != nil {
		return nil
	}
	return &CRFClassifier{Aspect: a, model: model, feats: d.fm}
}

// paraFeatures extracts the sparse features of one paragraph from its
// tokens: the deduplicated tokens (sorted for determinism). Unknown tokens
// map to -1 after freezing and are dropped.
func paraFeatures(fm *crf.FeatureMap, tokens []textproc.Token) []int {
	set := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		set[t] = struct{}{}
	}
	toks := make([]string, 0, len(set))
	for t := range set {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	out := make([]int, 0, len(toks))
	for _, t := range toks {
		if id := fm.ID("t=" + t); id >= 0 {
			out = append(out, id)
		}
	}
	return out
}

// predictPage decodes the page's paragraph labels.
func (c *CRFClassifier) predictPage(p *corpus.Page) []crf.Label {
	seq := make([][]int, len(p.Paras))
	for i := range p.Paras {
		seq[i] = paraFeatures(c.feats, p.ParaTokens(i))
	}
	return c.model.Decode(seq)
}

// PageScore returns the fraction of paragraphs decoded relevant.
func (c *CRFClassifier) PageScore(p *corpus.Page) float64 {
	if len(p.Paras) == 0 {
		return 0
	}
	labels := c.predictPage(p)
	n := 0
	for _, l := range labels {
		if l == 1 {
			n++
		}
	}
	return float64(n) / float64(len(labels))
}

// PageRelevant materializes the binary Y(p) with the same threshold as the
// NB classifier.
func (c *CRFClassifier) PageRelevant(p *corpus.Page) bool {
	return c.PageScore(p) >= RelevanceThreshold
}

// Accuracy measures paragraph-level accuracy against generator labels.
func (c *CRFClassifier) Accuracy(pages []*corpus.Page) float64 {
	correct, total := 0, 0
	for _, p := range pages {
		if len(p.Paras) == 0 {
			continue
		}
		labels := c.predictPage(p)
		for i := range p.Paras {
			want := p.Paras[i].Aspect == c.Aspect
			got := labels[i] == 1
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

// CRFSet mirrors Set for the CRF family: one classifier per aspect with a
// concurrent page-level Y cache.
type CRFSet struct {
	ByAspect map[corpus.Aspect]*CRFClassifier

	mu    sync.RWMutex
	cache map[cacheKey]bool
}

// TrainCRFSet trains a CRF per aspect. Aspects with degenerate training
// data are skipped, exactly like TrainSet. Paragraph features are
// extracted once for all aspects (extractCRF); aspects then train in
// parallel (par.For) — CRF training is seconds-scale per aspect, so a
// server paying it at boot gets the full core count — and each training
// run seeds its own RNG, so the result is identical to serial training.
func TrainCRFSet(aspects []corpus.Aspect, pages []*corpus.Page, cfg crf.TrainConfig) *CRFSet {
	d := extractCRF(pages)
	cs := make([]*CRFClassifier, len(aspects))
	par.For(len(aspects), func(i int) {
		cs[i] = d.train(aspects[i], cfg)
	})
	s := &CRFSet{
		ByAspect: make(map[corpus.Aspect]*CRFClassifier, len(aspects)),
		cache:    make(map[cacheKey]bool),
	}
	for i, a := range aspects {
		if cs[i] != nil {
			s.ByAspect[a] = cs[i]
		}
	}
	return s
}

// Relevant reports cached classifier-materialized Y(p). Panics for
// untrained aspects (programmer error).
func (s *CRFSet) Relevant(a corpus.Aspect, p *corpus.Page) bool {
	k := cacheKey{a: a, id: p.ID}
	s.mu.RLock()
	v, ok := s.cache[k]
	s.mu.RUnlock()
	if ok {
		return v
	}
	c, ok := s.ByAspect[a]
	if !ok {
		panic("classify: no CRF classifier for aspect " + string(a))
	}
	v = c.PageRelevant(p)
	s.mu.Lock()
	s.cache[k] = v
	s.mu.Unlock()
	return v
}

// YFunc returns the page-relevance function for an aspect.
func (s *CRFSet) YFunc(a corpus.Aspect) func(*corpus.Page) bool {
	return func(p *corpus.Page) bool { return s.Relevant(a, p) }
}
