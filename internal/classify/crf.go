package classify

import (
	"sort"

	"l2q/internal/corpus"
	"l2q/internal/crf"
	"l2q/internal/par"
	"l2q/internal/textproc"
)

// TrainCRF fits a CRF for aspect a on the given pages (one training
// sequence per page, a paragraph is positive iff its generator label
// equals a): the paper-faithful alternative to Naive Bayes (§VI-A trains
// "one classifier for each Y based on conditional random fields"), which
// exploits that paragraphs about the same aspect come in runs within a
// page. Returns nil if either class is absent from the training data. It
// is TrainCRFSet for one aspect: the same feature extraction, one training
// run.
func TrainCRF(a corpus.Aspect, pages []*corpus.Page) *Classifier {
	return extractCRF(pages).train(a)
}

// TrainCRFSet trains a CRF per aspect. Aspects with degenerate training
// data are skipped, exactly like TrainSet. Paragraph features are
// extracted once for all aspects (extractCRF); aspects then train in
// parallel (par.For) — CRF training is seconds-scale per aspect, so a
// server paying it at boot gets the full core count — and each training
// run seeds its own RNG, so the result is identical to serial training.
func TrainCRFSet(aspects []corpus.Aspect, pages []*corpus.Page) *Set {
	d := extractCRF(pages)
	cs := make([]*Classifier, len(aspects))
	par.For(len(aspects), func(i int) {
		cs[i] = d.train(aspects[i])
	})
	return NewSet(cs)
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
func (d *crfData) train(a corpus.Aspect) *Classifier {
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
	model, err := crf.Train(examples, d.fm.Len())
	if err != nil {
		return nil
	}
	return &Classifier{Aspect: a, chain: model, feats: d.fm}
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
