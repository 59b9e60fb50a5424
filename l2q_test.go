package l2q_test

import (
	"context"
	"testing"

	"l2q"
)

func smallOpts() l2q.SystemOptions {
	return l2q.SystemOptions{NumEntities: 20, PagesPerEntity: 14, Seed: 11}
}

func TestNewSyntheticSystemResearchers(t *testing.T) {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Corpus().NumEntities() != 20 {
		t.Fatalf("entities = %d", sys.Corpus().NumEntities())
	}
	if len(sys.Aspects()) != 7 {
		t.Fatalf("aspects = %v", sys.Aspects())
	}
	if len(sys.EntityIDs()) != 20 {
		t.Fatal("EntityIDs wrong")
	}
}

func TestEndToEndHarvest(t *testing.T) {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain("RESEARCH", ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	target := sys.Corpus().Entity(ids[len(ids)-1])
	h := sys.NewHarvester(target, "RESEARCH", dm)
	fired := mustRun(t, h, l2q.NewL2QBAL(), 3)
	if len(fired) != 3 {
		t.Fatalf("fired %d queries", len(fired))
	}
	if len(h.Pages()) == 0 {
		t.Fatal("no pages harvested")
	}
	rel := 0
	for _, p := range h.Pages() {
		if p.Entity == target.ID && sys.Relevant("RESEARCH", p) {
			rel++
		}
	}
	if rel == 0 {
		t.Fatal("harvest found no relevant pages")
	}
}

func TestBaselinesThroughFacade(t *testing.T) {
	sys, err := l2q.NewSyntheticSystem(l2q.Cars, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ids := sys.EntityIDs()
	hr, err := sys.TrainHR("SAFETY", ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	target := sys.Corpus().Entity(ids[len(ids)-1])
	for _, sel := range []l2q.Selector{
		l2q.NewLM(), l2q.NewAQ(), l2q.NewHR(hr), l2q.NewMQFor(l2q.Cars, "SAFETY"),
	} {
		h := sys.NewHarvester(target, "SAFETY", nil)
		if fired := mustRun(t, h, sel, 2); len(fired) == 0 {
			t.Errorf("%s fired nothing", sel.Name())
		}
	}
	if qs := l2q.ManualQueries(l2q.Cars, "SAFETY"); len(qs) != 5 {
		t.Fatalf("manual queries = %v", qs)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := l2q.NewSystem(nil, nil, nil, nil, l2q.DefaultConfig()); err == nil {
		t.Fatal("nil corpus accepted")
	}
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2q.NewSystem(sys.Corpus(), nil, nil, nil, l2q.DefaultConfig()); err == nil {
		t.Fatal("no aspects accepted")
	}
	if _, err := l2q.NewSystem(sys.Corpus(), nil, []l2q.Aspect{"NOSUCH"}, nil, l2q.DefaultConfig()); err == nil {
		t.Fatal("untrainable aspect accepted")
	}
}

func TestL2QWeightedStrategy(t *testing.T) {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain("RESEARCH", ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	target := sys.Corpus().Entity(ids[len(ids)-1])
	for _, beta := range []float64{0.2, 0.5, 0.8, -1 /* falls back to 0.5 */} {
		h := sys.NewHarvester(target, "RESEARCH", dm)
		if fired := mustRun(t, h, l2q.NewL2QWeighted(beta), 2); len(fired) != 2 {
			t.Fatalf("β=%v fired %d queries", beta, len(fired))
		}
	}
}

func TestDeterministicAcrossSystems(t *testing.T) {
	run := func() []l2q.Query {
		sys, err := l2q.NewSyntheticSystem(l2q.Researchers, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		ids := sys.EntityIDs()
		dm, err := sys.LearnDomain("AWARD", ids[:10])
		if err != nil {
			t.Fatal(err)
		}
		h := sys.NewHarvester(sys.Corpus().Entity(ids[15]), "AWARD", dm)
		return mustRun(t, h, l2q.NewL2QP(), 3)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

// mustRun is RunCtx over the in-process engine, which cannot fail: any
// error fails the test.
func mustRun(t testing.TB, h *l2q.Harvester, sel l2q.Selector, n int) []l2q.Query {
	t.Helper()
	fired, err := h.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}
