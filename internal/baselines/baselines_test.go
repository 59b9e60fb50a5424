package baselines

import (
	"context"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

type fixture struct {
	g      *synth.Generated
	engine *search.Engine
	rec    types.Recognizer
	y      func(*corpus.Page) bool
	cfg    core.Config
	domain []corpus.EntityID
	target *corpus.Entity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	n := g.Corpus.NumEntities()
	var domain []corpus.EntityID
	for i := 0; i < n/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	aspect := synth.AspResearch
	return &fixture{
		g:      g,
		engine: search.NewEngine(search.BuildIndex(g.Corpus.Pages)),
		rec:    types.Chain{g.KB, types.NewRegexRecognizer()},
		y:      func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) },
		cfg:    cfg,
		domain: domain,
		target: g.Corpus.Entities[n-1],
	}
}

func (f *fixture) session() *core.Session {
	return core.NewSession(f.cfg, f.engine, f.target, synth.AspResearch, f.y, nil, f.rec, 7)
}

func TestLMSelectsFromRelevantPage(t *testing.T) {
	f := newFixture(t)
	s := f.session()
	fired := mustRun(t, s, NewLM(), 3)
	if len(fired) != 3 {
		t.Fatalf("LM fired %d queries", len(fired))
	}
	seen := map[core.Query]struct{}{}
	for _, q := range fired {
		if _, dup := seen[q]; dup {
			t.Fatalf("LM repeated query %q", q)
		}
		seen[q] = struct{}{}
	}
}

func TestAQPrefersRelevantDF(t *testing.T) {
	f := newFixture(t)
	s := f.session()
	if _, err := s.BootstrapCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	sel, ok := NewAQ().Select(s)
	if !ok {
		t.Fatal("AQ found nothing")
	}
	// The chosen query must occur in at least one relevant current page.
	toks := f.cfg.QueryTokens(sel.Query)
	found := false
	for _, p := range s.Pages() {
		if f.y(p) && p.ContainsQuery(toks) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("AQ chose %q, absent from all relevant pages", sel.Query)
	}
}

func TestAQRunsFullHarvest(t *testing.T) {
	f := newFixture(t)
	s := f.session()
	if fired := mustRun(t, s, NewAQ(), 3); len(fired) != 3 {
		t.Fatalf("AQ fired %d queries", len(fired))
	}
}

func TestHRTrainAndSelect(t *testing.T) {
	f := newFixture(t)
	model := f.trainHR(t)
	if len(model.TemplateHR) == 0 {
		t.Fatal("HR learned no template statistics")
	}
	for key, v := range model.TemplateHR {
		if v < 0 || v > 1 {
			t.Fatalf("template %q harvest rate %f outside [0,1]", key, v)
		}
	}
	if len(model.Candidates) == 0 {
		t.Fatal("HR has no domain candidates")
	}
	s := f.session()
	if fired := mustRun(t, s, NewHR(model), 3); len(fired) != 3 {
		t.Fatalf("HR fired %d queries", len(fired))
	}
}

// trainHR trains HR over the fixture's domain entities.
func (f *fixture) trainHR(t *testing.T) *HRModel {
	t.Helper()
	s, err := core.NewDomainSample(f.cfg, f.g.Corpus, f.domain, nil, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	return TrainHR(s, f.y)
}

// TestHRTrainEmptyDomain: HR has nothing to train over without domain
// entities — there is no sample of them.
func TestHRTrainEmptyDomain(t *testing.T) {
	f := newFixture(t)
	if _, err := core.NewDomainSample(f.cfg, f.g.Corpus, nil, nil, f.rec); err == nil {
		t.Fatal("empty domain accepted")
	}
}

func TestMQFiresCuratedInOrder(t *testing.T) {
	f := newFixture(t)
	s := f.session()
	want := ManualQueries(synth.DomainResearchers, synth.AspResearch)
	fired := mustRun(t, s, NewMQFor(synth.DomainResearchers, synth.AspResearch), 3)
	if len(fired) != 3 {
		t.Fatalf("MQ fired %d queries", len(fired))
	}
	for i := range fired {
		if fired[i] != want[i] {
			t.Fatalf("MQ order broke: fired %v, want prefix of %v", fired, want)
		}
	}
}

func TestMQExhausts(t *testing.T) {
	f := newFixture(t)
	s := f.session()
	fired := mustRun(t, s, NewMQFor(synth.DomainResearchers, synth.AspResearch), 10)
	if len(fired) != 5 {
		t.Fatalf("MQ fired %d queries, want exactly its 5 curated ones", len(fired))
	}
}

func TestManualQueriesCoverage(t *testing.T) {
	for _, d := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		for _, a := range synth.TargetAspects(d) {
			qs := ManualQueries(d, a)
			if len(qs) != 5 {
				t.Errorf("%s/%s has %d manual queries, want 5", d, a, len(qs))
			}
		}
	}
	if ManualQueries("nope", "nope") != nil {
		t.Error("unknown domain should return nil")
	}
	if ManualQueries(synth.DomainCars, "NOPE") != nil {
		t.Error("unknown aspect should return nil")
	}
}

func TestBaselineNames(t *testing.T) {
	f := newFixture(t)
	model := f.trainHR(t)
	names := map[string]core.Selector{
		"LM": NewLM(),
		"AQ": NewAQ(),
		"HR": NewHR(model),
		"MQ": NewMQFor(synth.DomainResearchers, synth.AspResearch),
	}
	for want, sel := range names {
		if sel.Name() != want {
			t.Errorf("Name() = %q, want %q", sel.Name(), want)
		}
	}
}

func TestSortQueriesHelper(t *testing.T) {
	qs := sortQueries([]core.Query{"b", "a", "c"})
	if qs[0] != "a" || qs[2] != "c" {
		t.Fatalf("sortQueries = %v", qs)
	}
}

// mustRun is RunCtx over an engine that cannot fail: any error fails the
// test.
func mustRun(t testing.TB, s *core.Session, sel core.Selector, n int) []core.Query {
	t.Helper()
	fired, err := s.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}
