package classify

import (
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

func generated(t testing.TB, d corpus.Domain) *synth.Generated {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTrainAndAccuracyResearchers(t *testing.T) {
	g := generated(t, synth.DomainResearchers)
	// Train on the first half of entities, evaluate on the second half —
	// the same protocol the experiments use.
	n := g.Corpus.NumEntities()
	var trainPages, testPages []*corpus.Page
	for _, p := range g.Corpus.Pages {
		if int(p.Entity) < n/2 {
			trainPages = append(trainPages, p)
		} else {
			testPages = append(testPages, p)
		}
	}
	for _, a := range g.Aspects {
		c := Train(a, trainPages)
		if c == nil {
			t.Fatalf("no classifier for %s", a)
		}
		acc := c.Accuracy(testPages)
		if acc < 0.85 {
			t.Errorf("aspect %s accuracy %.3f < 0.85 (paper range 0.85–0.99)", a, acc)
		}
	}
}

func TestTrainSetAndCache(t *testing.T) {
	g := generated(t, synth.DomainCars)
	set := TrainSet(g.Aspects, g.Corpus.Pages)
	if len(set.ByAspect) != len(g.Aspects) {
		t.Fatalf("trained %d classifiers, want %d", len(set.ByAspect), len(g.Aspects))
	}
	p := g.Corpus.Pages[0]
	a := g.Aspects[0]
	first := set.Relevant(a, p)
	second := set.Relevant(a, p) // cached path
	if first != second {
		t.Fatal("cache changed the answer")
	}
	y := set.YFunc(a)
	if y(p) != first {
		t.Fatal("YFunc disagrees with Relevant")
	}
}

func TestClassifierMatchesGroundTruthMostly(t *testing.T) {
	// Page-level agreement between classifier Y and generator truth must
	// be high, otherwise the harvesting experiments measure noise.
	g := generated(t, synth.DomainResearchers)
	set := TrainSet(g.Aspects, g.Corpus.Pages)
	agree, total := 0, 0
	for _, a := range g.Aspects {
		for _, p := range g.Corpus.Pages {
			if set.Relevant(a, p) == GroundTruth(p, a) {
				agree++
			}
			total++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.9 {
		t.Fatalf("page-level agreement %.3f < 0.9", frac)
	}
}

func TestTrainDegenerate(t *testing.T) {
	// No positive paragraphs → Train must return nil, not a broken model.
	pages := []*corpus.Page{
		{ID: 1, Entity: 0, Paras: []corpus.Paragraph{
			{Tokens: []string{"hello", "world"}, Aspect: "OTHER"},
		}},
	}
	if c := Train("RESEARCH", pages); c != nil {
		t.Fatal("expected nil classifier for missing positives")
	}
	if c := Train("OTHER", pages); c != nil {
		t.Fatal("expected nil classifier for missing negatives")
	}
}

func TestPageScoreBounds(t *testing.T) {
	g := generated(t, synth.DomainResearchers)
	set := TrainSet(g.Aspects, g.Corpus.Pages)
	c := set.ByAspect[g.Aspects[0]]
	for _, p := range g.Corpus.Pages[:50] {
		s := c.PageScore(p)
		if s < 0 || s > 1 {
			t.Fatalf("PageScore out of range: %f", s)
		}
	}
	empty := &corpus.Page{}
	if c.PageScore(empty) != 0 {
		t.Fatal("empty page must score 0")
	}
}

func TestRelevantPanicsOnUnknownAspect(t *testing.T) {
	g := generated(t, synth.DomainResearchers)
	set := TrainSet(g.Aspects, g.Corpus.Pages)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	set.Relevant("NOT_AN_ASPECT", g.Corpus.Pages[0])
}
