package classify

import (
	"reflect"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/crf"
	"l2q/internal/synth"
)

func trainPages(t testing.TB) ([]corpus.Aspect, []*corpus.Page) {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	return g.Aspects, g.Corpus.Pages
}

// TestTrainSetWorkerInvariance: TrainSet's fan-out over aspects is a
// pure wall-clock optimization — it trains exactly the classifiers a
// serial loop of the per-aspect reference does (training is deterministic
// and aspects are independent). The oracle is trainReference, not Train:
// Train is TrainSet's own path for one aspect. make test-procs runs it at
// GOMAXPROCS 1 and 8.
func TestTrainSetWorkerInvariance(t *testing.T) {
	aspects, pages := trainPages(t)
	want := referenceSet(aspects, pages)
	if len(want) == 0 {
		t.Fatal("no classifiers trained")
	}
	if got := TrainSet(aspects, pages).ByAspect; !reflect.DeepEqual(got, want) {
		t.Fatal("TrainSet trained different classifiers than a serial trainReference loop")
	}
}

// trainCRFReference is TrainCRF before feature extraction was shared
// across aspects: every call builds its own feature map and feature rows.
func trainCRFReference(a corpus.Aspect, pages []*corpus.Page) *Classifier {
	fm := crf.NewFeatureMap()
	var examples []crf.Example
	seen := [2]bool{}
	for _, p := range pages {
		if len(p.Paras) == 0 {
			continue
		}
		ex := crf.Example{
			Feats:  make([][]int, len(p.Paras)),
			Labels: make([]crf.Label, len(p.Paras)),
		}
		for i := range p.Paras {
			ex.Feats[i] = paraFeatures(fm, p.ParaTokens(i))
			if p.Paras[i].Aspect == a {
				ex.Labels[i] = 1
			}
			seen[ex.Labels[i]] = true
		}
		examples = append(examples, ex)
	}
	if !seen[0] || !seen[1] || fm.Len() == 0 {
		return nil
	}
	fm.Freeze()
	model, err := crf.Train(examples, fm.Len())
	if err != nil {
		return nil
	}
	return &Classifier{Aspect: a, chain: model, feats: fm}
}

// TestTrainCRFSetWorkerInvariance mirrors the check for the CRF family:
// TrainCRFSet, whose aspects share one feature extraction, ≡ a serial
// per-aspect TrainCRF loop ≡ a serial trainCRFReference loop (each
// training run seeds its own RNG, so concurrency cannot perturb it).
func TestTrainCRFSetWorkerInvariance(t *testing.T) {
	aspects, pages := trainPages(t)
	pages = pages[:len(pages)/4] // CRF training is the slow family
	want := map[corpus.Aspect]*Classifier{}
	for _, a := range aspects {
		c := trainCRFReference(a, pages)
		if c != nil {
			want[a] = c
		}
		if !reflect.DeepEqual(TrainCRF(a, pages), c) {
			t.Fatalf("TrainCRF(%q) differs from trainCRFReference", a)
		}
	}
	if len(want) == 0 {
		t.Fatal("no CRFs trained")
	}
	if got := TrainCRFSet(aspects, pages).ByAspect; !reflect.DeepEqual(got, want) {
		t.Fatal("TrainCRFSet trained different classifiers than a serial TrainCRF loop")
	}
}

// restore rebuilds a Naive Bayes classifier from its exported parameters.
func restore(t *testing.T, c *Classifier) *Classifier {
	t.Helper()
	p, ok := c.Params()
	if !ok {
		t.Fatalf("aspect %s: a Naive Bayes classifier has no parameters", c.Aspect)
	}
	return FromParams(p)
}

// TestParamsRoundTrip: a classifier rebuilt from its exported parameters
// predicts identically on every page and paragraph.
func TestParamsRoundTrip(t *testing.T) {
	aspects, pages := trainPages(t)
	set := TrainSet(aspects, pages)
	for a, c := range set.ByAspect {
		restored := restore(t, c)
		if restored.Aspect != a {
			t.Fatalf("aspect lost: %s → %s", a, restored.Aspect)
		}
		for _, p := range pages {
			if restored.PageRelevant(p) != c.PageRelevant(p) {
				t.Fatalf("aspect %s: restored classifier disagrees on page %d", a, p.ID)
			}
			if restored.PageScore(p) != c.PageScore(p) {
				t.Fatalf("aspect %s: restored score drifts on page %d", a, p.ID)
			}
		}
	}

	// NewSet wraps restored classifiers with a working cache.
	var cs []*Classifier
	for _, c := range set.ByAspect {
		cs = append(cs, restore(t, c))
	}
	ns := NewSet(cs)
	for a := range set.ByAspect {
		if !ns.Has(a) {
			t.Fatalf("NewSet lost aspect %s", a)
		}
		for _, p := range pages[:8] {
			if ns.Relevant(a, p) != set.Relevant(a, p) {
				t.Fatalf("NewSet predicts differently for %s", a)
			}
		}
	}
}
