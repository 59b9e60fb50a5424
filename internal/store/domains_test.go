package store

import (
	"bytes"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// learnArtifact trains real classifiers and domain models over a small
// synthetic corpus — the artifact producers (l2qstore domains) persist.
func learnArtifact(t testing.TB) (*DomainArtifact, *corpus.Corpus, *classify.Set) {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Corpus
	aspects := c.Aspects()
	cls := classify.TrainSet(aspects, c.Pages)
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	rec := types.NewRegexRecognizer()
	var ids []corpus.EntityID
	for _, e := range c.Entities[:c.NumEntities()/2] {
		ids = append(ids, e.ID)
	}
	art := &DomainArtifact{CorpusDomain: c.Domain, NumEntities: c.NumEntities(), NumPages: c.NumPages()}
	for _, a := range aspects {
		if !cls.Has(a) {
			continue
		}
		dm, err := core.LearnDomain(cfg, a, c, ids, cls.YFunc(a), rec)
		if err != nil {
			t.Fatal(err)
		}
		art.Models = append(art.Models, dm)
		p, _ := cls.ByAspect[a].Params()
		art.Classifiers = append(art.Classifiers, p)
	}
	if len(art.Models) == 0 {
		t.Fatal("no models learned")
	}
	return art, c, cls
}

// TestDomainsRoundTrip: every model and classifier parameter survives the
// codec exactly — the float64s carry IEEE bits verbatim, so a warm-booted
// server computes byte-identical selections.
func TestDomainsRoundTrip(t *testing.T) {
	art, c, cls := learnArtifact(t)

	var buf bytes.Buffer
	if err := SaveDomains(&buf, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDomains(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CorpusDomain != art.CorpusDomain ||
		loaded.NumEntities != art.NumEntities || loaded.NumPages != art.NumPages {
		t.Fatalf("meta mismatch: %+v", loaded)
	}
	if len(loaded.Models) != len(art.Models) {
		t.Fatalf("loaded %d models, saved %d", len(loaded.Models), len(art.Models))
	}
	for i, dm := range art.Models {
		if !bytes.Equal(modelBytes(loaded.Models[i]), modelBytes(dm)) {
			t.Errorf("model %s did not round-trip exactly", dm.Aspect)
		}
	}

	// Restored classifiers must predict identically on every page.
	set := loaded.ClassifierSet()
	if set == nil {
		t.Fatal("no classifiers restored")
	}
	for _, dm := range art.Models {
		a := dm.Aspect
		for _, p := range c.Pages {
			if set.Relevant(a, p) != cls.Relevant(a, p) {
				t.Fatalf("aspect %s page %d: restored classifier disagrees", a, p.ID)
			}
		}
	}
}

// TestDomainsDeterministicBytes: the same artifact always encodes to the
// same bytes (maps are sorted before encoding).
func TestDomainsDeterministicBytes(t *testing.T) {
	art, _, _ := learnArtifact(t)
	var a, b bytes.Buffer
	if err := SaveDomains(&a, art); err != nil {
		t.Fatal(err)
	}
	if err := SaveDomains(&b, art); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one artifact produced different bytes")
	}
}

// TestDomainsFileRoundTrip covers the atomic file helpers.
func TestDomainsFileRoundTrip(t *testing.T) {
	art, _, _ := learnArtifact(t)
	path := t.TempDir() + "/x.domains"
	if err := SaveDomainsFile(path, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDomainsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// learnArtifact builds models in sorted-aspect order, which is also
	// the codec's canonical order, so a direct compare is exact.
	if !bytes.Equal(modelBytes(loaded.Models...), modelBytes(art.Models...)) {
		t.Fatal("file round trip lost model state")
	}
}

// modelBytes is the DOMS encoding of models: every persisted field, the
// solved utilities included, so equal bytes are equal models (a model
// holds sync state and its solver, which reflect.DeepEqual cannot
// compare).
func modelBytes(models ...*core.DomainModel) []byte {
	var e Enc
	encodeDomainModels(&e, models)
	return e.Data()
}

// TestDomainsUnsolvedEncodesSolved: a model whose fixpoints nothing read
// before it was saved encodes to the same bytes as one solved first, and
// as the learner's artifact, which solves each aspect in its fan-out.
func TestDomainsUnsolvedEncodesSolved(t *testing.T) {
	unsolved, _, _ := learnArtifact(t)
	solved, _, _ := learnArtifact(t)
	for _, dm := range solved.Models {
		if err := dm.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	learned, err := NewDomainLearner(g.Corpus, g.Tokenizer, types.NewRegexRecognizer(), nil, nil).Artifact()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := SaveDomains(&want, unsolved); err != nil {
		t.Fatal(err)
	}
	for name, art := range map[string]*DomainArtifact{"solved first": solved, "learner": learned} {
		var got bytes.Buffer
		if err := SaveDomains(&got, art); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the artifact encodes differently from the unsolved one", name)
		}
	}
}

// TestDomainLearnerServesTheArtifact: a learner built from an artifact
// hands out the artifact's own model for every aspect it covers — never a
// learned one — and learns an aspect it does not cover once, to the bytes
// a learner without the artifact learns.
func TestDomainLearnerServesTheArtifact(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	rec := types.NewRegexRecognizer()
	full, err := NewDomainLearner(g.Corpus, g.Tokenizer, rec, nil, nil).Artifact()
	if err != nil {
		t.Fatal(err)
	}
	last := len(full.Models) - 1
	partial := &DomainArtifact{Models: full.Models[:last], Classifiers: full.Classifiers}
	ln := NewDomainLearner(g.Corpus, g.Tokenizer, rec, partial, nil)
	for _, dm := range partial.Models {
		if got, err := ln.Learn(dm.Aspect); err != nil || got != dm {
			t.Errorf("aspect %s: Learn returned %p, %v; want the artifact's model %p", dm.Aspect, got, err, dm)
		}
	}
	lazy := full.Models[last]
	got, err := ln.Learn(lazy.Aspect)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := ln.Learn(lazy.Aspect); err != nil || again != got {
		t.Errorf("aspect %s: a second Learn returned %p, %v; want the model learned first, %p", lazy.Aspect, again, err, got)
	}
	if !bytes.Equal(modelBytes(got), modelBytes(lazy)) {
		t.Errorf("aspect %s: the model learned beside the artifact differs from a fresh learner's", lazy.Aspect)
	}
}

// TestArtifactRefusesCRFClassifiers: the artifact carries Naive Bayes
// parameters only, so a learner holding a CRF refuses to package one
// instead of writing an artifact that silently lacks that classifier.
func TestArtifactRefusesCRFClassifiers(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	ln := NewDomainLearner(g.Corpus, g.Tokenizer, types.NewRegexRecognizer(), nil, nil)
	a := ln.Aspects[0]
	ln.Cls.ByAspect[a] = classify.TrainCRF(a, g.Corpus.Pages)
	if art, err := ln.Artifact(); err == nil {
		t.Fatalf("Artifact packaged %d classifiers with aspect %s's CRF among them", len(art.Classifiers), a)
	}
}
