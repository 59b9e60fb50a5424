package core

import (
	"reflect"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// TestGradedYBinaryEquivalence checks the paper's real-valued relevance
// generalization degenerates exactly to the binary model when the score is
// the indicator of Y — both in the domain phase and the entity phase.
func TestGradedYBinaryEquivalence(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	indicator := func(p *corpus.Page) float64 {
		if f.y(p) {
			return 1
		}
		return 0
	}

	dmBinary, err := LearnDomain(cfg, synth.AspResearch, f.g.Corpus, f.domain, f.y, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	dmScored, err := LearnDomainScored(cfg, synth.AspResearch, f.g.Corpus, f.domain, f.y, indicator, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range dmBinary.TemplateP() {
		if got := dmScored.TemplateP()[key]; got != want {
			t.Fatalf("template %q precision %v vs %v", key, got, want)
		}
	}
	for key, want := range dmBinary.TemplateRCount {
		if got := dmScored.TemplateRCount[key]; got != want {
			t.Fatalf("template %q recall-count %v vs %v", key, got, want)
		}
	}

	// YScore feeds the page regularization of the two fixpoints only, so
	// the strategies that read one (P+t, R+t) are the ones it can move;
	// L2QBAL rides along for the collective family. Afterwards every
	// family is requested explicitly and must agree bit for bit.
	for _, sel := range []Selector{NewPT(), NewRT(), NewL2QBAL()} {
		runWith := func(score func(*corpus.Page) float64) ([]Query, *Inference) {
			s := NewSession(cfg, f.engine, f.target, synth.AspResearch, f.y, dmBinary, f.rec, 42)
			s.YScore = score
			fired := mustRun(t, s, sel, 3)
			inf, err := s.Infer(allUtilities)
			if err != nil {
				t.Fatal(err)
			}
			return fired, inf
		}
		plain, plainInf := runWith(nil)
		scored, scoredInf := runWith(indicator)
		if len(plain) == 0 || !reflect.DeepEqual(plain, scored) {
			t.Fatalf("%s: indicator YScore selected %v, binary %v", sel.Name(), scored, plain)
		}
		if !reflect.DeepEqual(plainInf, scoredInf) {
			t.Fatalf("%s: indicator YScore inferred different utilities than binary Y", sel.Name())
		}
	}
}

// TestGradedYFromClassifierScores runs a harvest with the classifier's
// real-valued page scores as Y — the configuration the paper sketches but
// does not evaluate. The harvest must complete and stay focused (a
// majority of gathered pages relevant under the binary Y).
func TestGradedYFromClassifierScores(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	cls := classify.Train(synth.AspResearch, f.g.Corpus.Pages)
	if cls == nil {
		t.Fatal("classifier training failed")
	}

	dm, err := LearnDomainScored(cfg, synth.AspResearch, f.g.Corpus, f.domain,
		f.y, cls.PageScore, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cfg, f.engine, f.target, synth.AspResearch, f.y, dm, f.rec, 42)
	s.YScore = cls.PageScore
	fired := mustRun(t, s, NewL2QBAL(), 3)
	if len(fired) == 0 {
		t.Fatal("graded harvest selected nothing")
	}
	relOf := func(pages []*corpus.Page) int {
		n := 0
		for _, p := range pages {
			if f.y(p) {
				n++
			}
		}
		return n
	}
	graded := relOf(s.Pages())

	// Reference: the binary model on the same target. Graded scores must
	// not collapse the harvest — within one relevant page of binary.
	ref := NewSession(cfg, f.engine, f.target, synth.AspResearch, f.y, f.dm, f.rec, 42)
	mustRun(t, ref, NewL2QBAL(), 3)
	binary := relOf(ref.Pages())
	if graded < binary-1 {
		t.Errorf("graded harvest collapsed: %d relevant vs binary's %d", graded, binary)
	}
}

// TestScoredRegularizationClamping checks out-of-range scores are clamped
// into [0,1] rather than corrupting the fixpoint.
func TestScoredRegularizationClamping(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	wild := func(p *corpus.Page) float64 {
		if f.y(p) {
			return 7 // clamps to 1
		}
		return -3 // clamps to 0
	}
	dm, err := LearnDomainScored(cfg, synth.AspResearch, f.g.Corpus, f.domain, f.y, wild, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range dm.TemplateP() {
		if v < 0 || v > 1 {
			t.Fatalf("template %q precision %v outside [0,1]", key, v)
		}
	}
}
