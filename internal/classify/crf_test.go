package classify

import (
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// trainTestSplit returns the synthetic pages split in half per entity, so
// train and test cover the same entities but disjoint pages.
func trainTestSplit(t *testing.T, domain corpus.Domain) (g *synth.Generated, train, test []*corpus.Page) {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Corpus.Entities {
		pages := g.Corpus.PagesOf(e.ID)
		half := len(pages) / 2
		train = append(train, pages[:half]...)
		test = append(test, pages[half:]...)
	}
	return g, train, test
}

func TestCRFAccuracyOnSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("CRF training is seconds-scale")
	}
	g, train, test := trainTestSplit(t, synth.DomainResearchers)
	aspect := g.Aspects[0]
	c := TrainCRF(aspect, train)
	if c == nil {
		t.Fatal("no CRF trained")
	}
	if acc := c.Accuracy(test); acc < 0.9 {
		t.Errorf("CRF accuracy %.3f < 0.9 on held-out pages", acc)
	}
}

// TestCRFvsNBAgreeOnY verifies both classifier families materialize a
// consistent Y on clearly relevant and clearly irrelevant pages — the
// property the harvesting comparison relies on when swapping families.
func TestCRFvsNBAgreeOnY(t *testing.T) {
	if testing.Short() {
		t.Skip("CRF training is seconds-scale")
	}
	g, train, test := trainTestSplit(t, synth.DomainCars)
	aspect := g.Aspects[0]
	nb := Train(aspect, train)
	cr := TrainCRF(aspect, train)
	if nb == nil || cr == nil {
		t.Fatal("training failed")
	}
	agree, total := 0, 0
	for _, p := range test {
		if nb.PageRelevant(p) == cr.PageRelevant(p) {
			agree++
		}
		total++
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("NB and CRF agree on only %.2f of pages", frac)
	}
}

func TestTrainCRFDegenerate(t *testing.T) {
	// No positive paragraphs for the aspect → nil.
	page := &corpus.Page{ID: 1, Paras: []corpus.Paragraph{
		{Text: "a", Tokens: []string{"a"}, Aspect: "OTHER"},
	}}
	if c := TrainCRF("MISSING", []*corpus.Page{page}); c != nil {
		t.Error("expected nil classifier for aspect with no positives")
	}
	// No pages at all.
	if c := TrainCRF("X", nil); c != nil {
		t.Error("expected nil classifier for empty corpus")
	}
}

func TestCRFSetCachesAndPanics(t *testing.T) {
	g, train, test := trainTestSplit(t, synth.DomainCars)
	set := TrainCRFSet(g.Aspects[:1], train)
	a := g.Aspects[0]
	c, ok := set.ByAspect[a]
	if !ok {
		t.Fatalf("aspect %s not trained", a)
	}
	if _, ok := c.Params(); ok {
		t.Error("a CRF handed out Naive Bayes parameters")
	}
	p := test[0]
	first := set.Relevant(a, p)
	if second := set.Relevant(a, p); second != first {
		t.Error("cache changed the answer")
	}
	y := set.YFunc(a)
	if y(p) != first {
		t.Error("YFunc disagrees with Relevant")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for untrained aspect")
		}
	}()
	set.Relevant("UNTRAINED", p)
}

func TestCRFPageScoreEmptyPage(t *testing.T) {
	g, train, _ := trainTestSplit(t, synth.DomainCars)
	c := TrainCRF(g.Aspects[0], train)
	if c == nil {
		t.Fatal("training failed")
	}
	empty := &corpus.Page{ID: 999}
	if s := c.PageScore(empty); s != 0 {
		t.Errorf("empty page score = %v", s)
	}
	if c.PageRelevant(empty) {
		t.Error("empty page relevant")
	}
}
