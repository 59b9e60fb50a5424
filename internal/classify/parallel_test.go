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
// serial per-aspect Train loop does (training is deterministic and aspects
// are independent). make test-procs runs it at GOMAXPROCS 1 and 8.
func TestTrainSetWorkerInvariance(t *testing.T) {
	aspects, pages := trainPages(t)
	want := map[corpus.Aspect]*Classifier{}
	for _, a := range aspects {
		if c := Train(a, pages); c != nil {
			want[a] = c
		}
	}
	if len(want) == 0 {
		t.Fatal("no classifiers trained")
	}
	if got := TrainSet(aspects, pages).ByAspect; !reflect.DeepEqual(got, want) {
		t.Fatal("TrainSet trained different classifiers than a serial Train loop")
	}
}

// TestTrainCRFSetWorkerInvariance mirrors the check for the CRF family:
// TrainCRFSet ≡ a serial per-aspect TrainCRF loop (each TrainCRF seeds its
// own RNG, so concurrency cannot perturb it).
func TestTrainCRFSetWorkerInvariance(t *testing.T) {
	aspects, pages := trainPages(t)
	pages = pages[:len(pages)/4] // CRF training is the slow family
	cfg := crf.DefaultTrainConfig()
	want := map[corpus.Aspect]*CRFClassifier{}
	for _, a := range aspects {
		if c := TrainCRF(a, pages, cfg); c != nil {
			want[a] = c
		}
	}
	if got := TrainCRFSet(aspects, pages, cfg).ByAspect; !reflect.DeepEqual(got, want) {
		t.Fatal("TrainCRFSet trained different classifiers than a serial TrainCRF loop")
	}
}

// TestParamsRoundTrip: a classifier rebuilt from its exported parameters
// predicts identically on every page and paragraph.
func TestParamsRoundTrip(t *testing.T) {
	aspects, pages := trainPages(t)
	set := TrainSet(aspects, pages)
	for a, c := range set.ByAspect {
		restored := FromParams(c.Params())
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
		cs = append(cs, FromParams(c.Params()))
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
