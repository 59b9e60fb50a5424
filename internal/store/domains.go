package store

// Domain-artifact files persist the output of the domain phase — trained
// core.DomainModels plus the aspect classifiers that materialize Y — so a
// server boots warm instead of re-learning every domain model on its
// first harvest request (the paper's own efficiency note: the domain
// phase "is only executed once", §VI-C — which is precisely why its
// output should be a durable artifact). Three sections in the container:
//
//	magic "L2QDOM1"
//	DMET section: corpus domain str | entities uvarint | pages uvarint
//	DOMS section: count | per model: aspect str | 5 template maps |
//	    4 query maps | candidates | relFraction f64 | numEntities |
//	    numPages   (maps encoded sorted by key, so files are
//	    deterministic byte-for-byte)
//	CLSF section: count | per classifier: aspect str | logPrior f64×2 |
//	    logUnk f64×2 | per class: vocab count | (token str, f64)...
//
// Every float64 travels verbatim (IEEE bits), so a loaded model selects
// byte-identically to the freshly learned one.

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// domMagic identifies a domain-artifact file and its major version.
const domMagic = "L2QDOM1"

const (
	secDomMeta     = "DMET"
	secDomains     = "DOMS"
	secClassifiers = "CLSF"
)

// DomainArtifact is what a domain-artifact file contains: the trained
// domain models and aspect classifiers of one corpus, plus the corpus
// identity they were learned from (informational, surfaced at load so an
// operator can spot a corpus/artifact mismatch).
type DomainArtifact struct {
	// CorpusDomain, NumEntities and NumPages identify the corpus the
	// models were learned over.
	CorpusDomain corpus.Domain
	NumEntities  int
	NumPages     int
	// Models holds one trained DomainModel per aspect, sorted by aspect.
	Models []*core.DomainModel
	// Classifiers holds the trained aspect classifiers, sorted by
	// aspect; may be empty when the producer persisted models only.
	Classifiers []classify.Params
}

// ClassifierSet reconstructs a classify.Set from the persisted
// classifier parameters (nil when the artifact carries none).
func (a *DomainArtifact) ClassifierSet() *classify.Set {
	if len(a.Classifiers) == 0 {
		return nil
	}
	cs := make([]*classify.Classifier, 0, len(a.Classifiers))
	for _, p := range a.Classifiers {
		cs = append(cs, classify.FromParams(p))
	}
	return classify.NewSet(cs)
}

// DomainLearner is the canonical warm-boot learning protocol, shared by
// cmd/l2qstore's `domains` subcommand (precompute an artifact) and
// cmd/l2qserve's harvest backend: aspect classifiers trained on the WHOLE
// served corpus, domain models learned over the first half of the corpus
// entities under one config. Keeping the protocol in one place — not
// mirrored by hand across the two commands — is what makes a precomputed
// artifact select byte-identically to a cold-booted server.
type DomainLearner struct {
	// Corpus, Cfg and Rec are the learning inputs (Cfg carries the
	// tokenizer).
	Corpus *corpus.Corpus
	Cfg    core.Config
	Rec    types.Recognizer
	// Cls holds the aspect classifiers; Aspects lists the aspects with
	// training signal (the servable set); DomainIDs is the canonical
	// first-half domain sample.
	Cls       *classify.Set
	Aspects   []corpus.Aspect
	DomainIDs []corpus.EntityID

	// loaded are the artifact's models, which Learn hands out for the
	// aspects they cover. sample learns every other aspect once, under
	// Cls (sampleErr when DomainIDs have no pages).
	loaded    []*core.DomainModel
	sample    *core.DomainSample
	sampleErr error
}

// NewDomainLearner wires the protocol for a corpus. tok is the (possibly
// reconstructed) tokenizer. art, when non-nil, is a loaded domain
// artifact: its classifiers are used as-is and its models are the ones
// Learn returns. Aspects it does not cover get classifiers trained here
// and models learned on first use, so an artifact built before a corpus
// gained an aspect degrades to lazy learning instead of silently
// disabling the aspect. counts, when non-nil, are c's label counts taken
// in a pass that already read the pages (a boot's index build,
// search.BuildIndex's also), which the classifiers are derived from; nil
// counts the corpus here if a classifier has to be trained.
func NewDomainLearner(c *corpus.Corpus, tok *textproc.Tokenizer,
	rec types.Recognizer, art *DomainArtifact, counts *classify.LabelCounts) *DomainLearner {

	aspects := c.Aspects()
	cls := classify.NewSet(nil)
	var loaded []*core.DomainModel
	if art != nil {
		if s := art.ClassifierSet(); s != nil {
			cls = s
		}
		loaded = art.Models
	}
	var missing []corpus.Aspect
	for _, a := range aspects {
		if !cls.Has(a) {
			missing = append(missing, a)
		}
	}
	if len(missing) > 0 {
		if counts == nil {
			counts = classify.CountLabels(c.Pages)
		}
		for a, cl := range counts.TrainSet(missing).ByAspect {
			cls.ByAspect[a] = cl
		}
	}
	var usable []corpus.Aspect
	for _, a := range aspects {
		if cls.Has(a) {
			usable = append(usable, a)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = tok
	ids := make([]corpus.EntityID, 0, c.NumEntities()/2)
	for _, e := range c.Entities[:c.NumEntities()/2] {
		ids = append(ids, e.ID)
	}
	l := &DomainLearner{Corpus: c, Cfg: cfg, Rec: rec, Cls: cls, Aspects: usable, DomainIDs: ids, loaded: loaded}
	l.sample, l.sampleErr = core.NewDomainSample(cfg, c, ids, cls.YFunc, rec)
	return l
}

// Learn returns one aspect's domain model under the protocol — the shape
// harvest.Backend.DomainModel consumes: the artifact's model when it
// covers the aspect, else the sample's, learned on the first call. A
// learned model solves its fixpoints on first read, which a harvest with
// L2Q* never makes.
func (l *DomainLearner) Learn(a corpus.Aspect) (*core.DomainModel, error) {
	for _, dm := range l.loaded {
		if dm.Aspect == a {
			return dm, nil
		}
	}
	if l.sampleErr != nil {
		return nil, l.sampleErr
	}
	return l.sample.Model(a), nil
}

// Artifact learns and solves every servable aspect, aspects in parallel,
// and packages the persistable DomainArtifact (models + classifier
// parameters) in aspect order. The artifact carries Naive Bayes
// parameters only, so a CRF classifier is an error, not a silent gap.
func (l *DomainLearner) Artifact() (*DomainArtifact, error) {
	if len(l.Aspects) == 0 {
		return nil, fmt.Errorf("store: no aspect has training signal")
	}
	params := make([]classify.Params, 0, len(l.Aspects))
	for _, a := range l.Aspects {
		p, ok := l.Cls.ByAspect[a].Params()
		if !ok {
			return nil, fmt.Errorf("store: aspect %s: a domain artifact carries only Naive Bayes classifiers", a)
		}
		params = append(params, p)
	}
	models, err := core.LearnAspects(l.Aspects, true, l.Learn)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &DomainArtifact{
		CorpusDomain: l.Corpus.Domain,
		NumEntities:  l.Corpus.NumEntities(),
		NumPages:     l.Corpus.NumPages(),
		Models:       models,
		Classifiers:  params,
	}, nil
}

// SaveDomains writes the domain artifact to w. Models and classifiers are
// sorted by aspect before encoding, so equal artifacts produce identical
// bytes.
func SaveDomains(w io.Writer, a *DomainArtifact) error {
	if a == nil || len(a.Models) == 0 {
		return fmt.Errorf("store: no domain models to save")
	}
	models := slices.Clone(a.Models)
	slices.SortStableFunc(models, func(x, y *core.DomainModel) int { return cmp.Compare(x.Aspect, y.Aspect) })
	cls := slices.Clone(a.Classifiers)
	slices.SortStableFunc(cls, func(x, y classify.Params) int { return cmp.Compare(x.Aspect, y.Aspect) })
	sections := []section{
		{secDomMeta, func(e *Enc) {
			e.Str(string(a.CorpusDomain))
			e.Uvarint(uint64(a.NumEntities))
			e.Uvarint(uint64(a.NumPages))
		}},
		{secDomains, func(e *Enc) { encodeDomainModels(e, models) }},
	}
	if len(cls) > 0 {
		sections = append(sections, section{secClassifiers, func(e *Enc) { encodeClassifiers(e, cls) }})
	}
	return writeContainer(w, domMagic, sections)
}

// LoadDomains reads a domain-artifact file written by SaveDomains. Like
// SaveDomains it refuses an artifact without models.
func LoadDomains(r io.Reader) (*DomainArtifact, error) {
	a := &DomainArtifact{}
	err := readContainer(r, domMagic, map[string]func(*Dec) error{
		secDomMeta: func(d *Dec) error {
			a.CorpusDomain = corpus.Domain(d.Str())
			a.NumEntities = int(d.Uvarint())
			a.NumPages = int(d.Uvarint())
			return nil
		},
		secDomains:     func(d *Dec) error { a.Models = decodeDomainModels(d); return nil },
		secClassifiers: func(d *Dec) error { a.Classifiers = decodeClassifiers(d); return nil },
	})
	if err != nil {
		return nil, err
	}
	if len(a.Models) == 0 {
		return nil, fmt.Errorf("store: no DOMS section or no domain models")
	}
	return a, nil
}

// SaveDomainsFile writes the artifact to path durably (see replaceFile).
func SaveDomainsFile(path string, a *DomainArtifact) error {
	return replaceFile(path, func(w io.Writer) error { return SaveDomains(w, a) })
}

// LoadDomainsFile reads a domain-artifact file from path.
func LoadDomainsFile(path string) (*DomainArtifact, error) {
	return loadFile(path, LoadDomains)
}

func encodeDomainModels(e *Enc, models []*core.DomainModel) {
	e.Uvarint(uint64(len(models)))
	for _, dm := range models {
		e.Str(string(dm.Aspect))
		encStrMap(e, dm.TemplateP())
		encStrMap(e, dm.TemplateR())
		encStrMap(e, nil) // the retired Y*-recall map's slot: the layout stays L2QDOM1
		encStrMap(e, dm.TemplateRCount)
		encStrMap(e, dm.TemplateRStarCount)
		encQueryMap(e, dm.QueryRCount)
		encQueryMap(e, dm.QueryRStarCount)
		encQueryMap(e, dm.QueryP())
		encQueryMap(e, dm.QueryR())
		e.Uvarint(uint64(len(dm.Candidates)))
		for _, q := range dm.Candidates {
			e.Str(string(q))
		}
		e.F64(dm.RelFraction)
		e.Uvarint(uint64(dm.NumEntities))
		e.Uvarint(uint64(dm.NumPages))
	}
}

func decodeDomainModels(d *Dec) []*core.DomainModel {
	n := d.Count("domain models")
	out := make([]*core.DomainModel, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		dm := &core.DomainModel{Aspect: corpus.Aspect(d.Str())}
		templateP, templateR := decStrMap(d), decStrMap(d)
		decStrMap(d) // the retired Y*-recall map: an older artifact's is read and dropped
		dm.TemplateRCount = decStrMap(d)
		dm.TemplateRStarCount = decStrMap(d)
		dm.QueryRCount = decQueryMap(d)
		dm.QueryRStarCount = decQueryMap(d)
		queryP, queryR := decQueryMap(d), decQueryMap(d)
		dm.SetUtilities(templateP, templateR, queryP, queryR)
		nc := d.Count("domain candidates")
		dm.Candidates = make([]core.Query, 0, nc)
		for j := 0; j < nc && d.Err() == nil; j++ {
			dm.Candidates = append(dm.Candidates, core.Query(d.Str()))
		}
		dm.RelFraction = d.F64()
		dm.NumEntities = int(d.Uvarint())
		dm.NumPages = int(d.Uvarint())
		out = append(out, dm)
	}
	return out
}

func encodeClassifiers(e *Enc, cls []classify.Params) {
	e.Uvarint(uint64(len(cls)))
	for _, p := range cls {
		e.Str(string(p.Aspect))
		for cls := 0; cls < 2; cls++ {
			e.F64(p.LogPrior[cls])
			e.F64(p.LogUnk[cls])
		}
		for cls := 0; cls < 2; cls++ {
			toks := make([]string, 0, len(p.LogLik[cls]))
			for t := range p.LogLik[cls] {
				toks = append(toks, string(t))
			}
			sort.Strings(toks)
			e.Uvarint(uint64(len(toks)))
			for _, t := range toks {
				e.Str(t)
				e.F64(p.LogLik[cls][textproc.Token(t)])
			}
		}
	}
}

func decodeClassifiers(d *Dec) []classify.Params {
	n := d.Count("classifiers")
	out := make([]classify.Params, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		p := classify.Params{Aspect: corpus.Aspect(d.Str())}
		for cls := 0; cls < 2; cls++ {
			p.LogPrior[cls] = d.F64()
			p.LogUnk[cls] = d.F64()
		}
		for cls := 0; cls < 2; cls++ {
			nt := d.Count("classifier vocab")
			lik := make(map[textproc.Token]float64, nt)
			for j := 0; j < nt && d.Err() == nil; j++ {
				t := textproc.Token(d.Str())
				lik[t] = d.F64()
			}
			p.LogLik[cls] = lik
		}
		out = append(out, p)
	}
	return out
}

// encStrMap encodes a string-keyed float map sorted by key.
func encStrMap(e *Enc, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.F64(m[k])
	}
}

func decStrMap(d *Dec) map[string]float64 {
	n := d.Count("map entries")
	m := make(map[string]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		m[k] = d.F64()
	}
	return m
}

// encQueryMap encodes a Query-keyed float map sorted by key.
func encQueryMap(e *Enc, m map[core.Query]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.F64(m[core.Query(k)])
	}
}

func decQueryMap(d *Dec) map[core.Query]float64 {
	n := d.Count("map entries")
	m := make(map[core.Query]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		m[core.Query(k)] = d.F64()
	}
	return m
}
