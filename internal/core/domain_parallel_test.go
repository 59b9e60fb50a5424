package core

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/par"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// domainLearnFixture builds the inputs LearnDomain consumes for one
// domain, without the session machinery of diffFixture.
type domainLearnFixture struct {
	cfg    Config
	aspect corpus.Aspect
	c      *corpus.Corpus
	ids    []corpus.EntityID
	y      func(*corpus.Page) bool
	score  func(*corpus.Page) float64
	rec    types.Recognizer
}

func newDomainLearnFixture(t testing.TB, domain corpus.Domain, aspect corpus.Aspect) *domainLearnFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var ids []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		ids = append(ids, g.Corpus.Entities[i].ID)
	}
	score := func(p *corpus.Page) float64 { return p.AspectFraction(aspect) }
	return &domainLearnFixture{
		cfg: cfg, aspect: aspect, c: g.Corpus, ids: ids, y: groundTruthY(aspect), score: score,
		rec: types.Chain{g.KB, types.NewRegexRecognizer()},
	}
}

func domainLearnFixtures(t *testing.T) map[string]*domainLearnFixture {
	t.Helper()
	return map[string]*domainLearnFixture{
		"researchers": newDomainLearnFixture(t, synth.DomainResearchers, synth.AspResearch),
		"cars":        newDomainLearnFixture(t, synth.DomainCars, synth.AspSafety),
	}
}

// diffDomainModels names the first part of the learned state in which
// two models differ, solving both ("" when they are equal): every
// exported field, then the four utility maps and the two rankings the
// fixpoints produce. A model holds sync state and its solver, so
// reflect.DeepEqual on the struct cannot compare two models.
func diffDomainModels(got, want *DomainModel) string {
	if err := got.Solve(); err != nil {
		return err.Error()
	}
	if err := want.Solve(); err != nil {
		return err.Error()
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if f := gv.Type().Field(i); f.IsExported() && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return f.Name
		}
	}
	for _, u := range []struct {
		name      string
		got, want any
	}{
		{"TemplateP", got.TemplateP(), want.TemplateP()},
		{"TemplateR", got.TemplateR(), want.TemplateR()},
		{"QueryP", got.QueryP(), want.QueryP()},
		{"QueryR", got.QueryR(), want.QueryR()},
		{"TopQueriesByP", got.TopQueriesByP(len(got.QueryP())), want.TopQueriesByP(len(want.QueryP()))},
		{"TopQueriesByR", got.TopQueriesByR(len(got.QueryR())), want.TopQueriesByR(len(want.QueryR()))},
	} {
		if !reflect.DeepEqual(u.got, u.want) {
			return u.name
		}
	}
	return ""
}

// TestLearnDomainMatchesReference: the domain phase over a DomainSample
// (one count through the page memo, lazy fixpoints) learns a DomainModel
// exactly equal to the retained re-enumerating, eagerly solving
// reference — binary and real-valued relevance, both domains, a sample
// whose entity IDs repeat non-adjacently (e0, e1, …, e0 again: entity-DF
// then counts by runs of each n-gram's pages, as the reference does), and
// every aspect learned (DomainSample.Model) and solved from one shared
// sample under par.For.
func TestLearnDomainMatchesReference(t *testing.T) {
	type input struct {
		name  string
		f     *domainLearnFixture
		ids   []corpus.EntityID
		score func(*corpus.Page) float64
	}
	var inputs []input
	for domain, f := range domainLearnFixtures(t) {
		inputs = append(inputs,
			input{domain + "/binary", f, f.ids, nil},
			input{domain + "/scored", f, f.ids, f.score})
		if domain == "cars" {
			inputs = append(inputs, input{domain + "/duplicates", f, append(slices.Clone(f.ids), f.ids[0]), nil})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			f := in.f
			got, err := LearnDomainScored(f.cfg, f.aspect, f.c, in.ids, f.y, in.score, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := LearnDomainReference(f.cfg, f.aspect, f.c, in.ids, f.y, in.score, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			if field := diffDomainModels(got, want); field != "" {
				t.Fatalf("domain model differs from the reference in %s", field)
			}
			if len(got.Candidates) == 0 || len(got.QueryP()) == 0 {
				t.Fatal("degenerate domain model (no candidates or query utilities)")
			}
		})
	}
	for domain, f := range domainLearnFixtures(t) {
		t.Run(domain+"/sample", func(t *testing.T) {
			sample, err := NewDomainSample(f.cfg, f.c, f.ids, groundTruthY, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			aspects := f.c.Aspects()
			models := make([]*DomainModel, len(aspects))
			par.For(len(aspects), func(i int) {
				models[i] = sample.Model(aspects[i])
				if err := models[i].Solve(); err != nil {
					t.Error(err)
				}
			})
			for i, a := range aspects {
				want, err := LearnDomainReference(f.cfg, a, f.c, f.ids, groundTruthY(a), nil, f.rec)
				if err != nil {
					t.Fatal(err)
				}
				if field := diffDomainModels(models[i], want); field != "" {
					t.Errorf("aspect %s: model from the shared sample differs from the reference in %s", a, field)
				}
			}
		})
	}
}

// groundTruthY is the labelled relevance of an aspect.
func groundTruthY(a corpus.Aspect) func(*corpus.Page) bool {
	return func(p *corpus.Page) bool { return classify.GroundTruth(p, a) }
}

// TestDomainModelConcurrentReads: eight goroutines make the first reads of
// two aspects' models over one sample at once — the graph is built once,
// each model's fixpoints solve once over it — and every read sees the
// utilities an eagerly solved reference has.
func TestDomainModelConcurrentReads(t *testing.T) {
	f := newDomainLearnFixture(t, synth.DomainResearchers, synth.AspResearch)
	sample, err := NewDomainSample(f.cfg, f.c, f.ids, groundTruthY, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	aspects := []corpus.Aspect{synth.AspResearch, synth.AspAward}
	var models, refs []*DomainModel
	for _, a := range aspects {
		models = append(models, sample.Model(a))
		ref, err := LearnDomainReference(f.cfg, a, f.c, f.ids, groundTruthY(a), nil, f.rec)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dm, ref := models[g%2], refs[g%2]
			if !maps.Equal(dm.TemplateP(), ref.TemplateP()) || !maps.Equal(dm.TemplateR(), ref.TemplateR()) ||
				!maps.Equal(dm.QueryP(), ref.QueryP()) || !maps.Equal(dm.QueryR(), ref.QueryR()) {
				t.Errorf("goroutine %d: %s utilities differ from the reference", g, dm.Aspect)
			}
			if !slices.Equal(dm.TopQueriesByP(20), ref.TopQueriesByP(20)) || !slices.Equal(dm.TopQueriesByR(20), ref.TopQueriesByR(20)) {
				t.Errorf("goroutine %d: %s rankings differ from the reference", g, dm.Aspect)
			}
		}()
	}
	wg.Wait()
	for i := range models {
		if field := diffDomainModels(models[i], refs[i]); field != "" {
			t.Errorf("%s differs from the reference in %s", aspects[i], field)
		}
	}
}

// TestDomainModelLearnsPerAspect: a sample learns each aspect at most
// once however many callers want it, and they share the one model; a
// learned aspect never waits on another aspect's learning, and two cold
// aspects learn at the same time. Aspect A's relevance provider blocks on
// a channel the test holds, so each claim is a fact while it is checked,
// not a race.
func TestDomainModelLearnsPerAspect(t *testing.T) {
	f := newDomainLearnFixture(t, synth.DomainResearchers, synth.AspResearch)
	a, b, c := synth.AspResearch, synth.AspAward, synth.AspContact
	release, entered := make(chan struct{}), make(chan struct{})
	learns := map[corpus.Aspect]*atomic.Int64{a: {}, b: {}, c: {}}
	sample, err := NewDomainSample(f.cfg, f.c, f.ids, func(x corpus.Aspect) func(*corpus.Page) bool {
		if learns[x].Add(1) == 1 && x == a {
			close(entered)
			<-release
		}
		return groundTruthY(x)
	}, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	warm := sample.Model(b)

	// Three callers for A: one learns, the other two wait for it.
	var wg sync.WaitGroup
	modelsA := make([]*DomainModel, 3)
	for i := range modelsA {
		wg.Add(1)
		go func() {
			defer wg.Done()
			modelsA[i] = sample.Model(a)
		}()
	}
	<-entered

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited on aspect A's learning", what)
		}
	}
	within("learned aspect B", func() {
		if dm := sample.Model(b); dm != warm {
			t.Errorf("aspect B: model %p, want the one learned before, %p", dm, warm)
		}
	})
	within("cold aspect C", func() {
		if dm := sample.Model(c); dm == nil || dm.Aspect != c {
			t.Errorf("aspect C: model %v, want C's", dm)
		}
	})

	close(release)
	wg.Wait()
	for x, n := range learns {
		if n.Load() != 1 {
			t.Errorf("aspect %s learned %d times, want once", x, n.Load())
		}
	}
	for i, dm := range modelsA {
		if dm == nil || dm != modelsA[0] || dm.Aspect != a {
			t.Errorf("caller %d for A got model %p, want the one learned model %p", i, dm, modelsA[0])
		}
	}
}

// TestLearnDomainHarvestParity is the end-to-end check: a session
// harvesting with the learned model fires exactly the queries of one
// using the reference-learned model.
func TestLearnDomainHarvestParity(t *testing.T) {
	for domain, f := range domainLearnFixtures(t) {
		t.Run(domain, func(t *testing.T) {
			dm, err := LearnDomainScored(f.cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := LearnDomainReference(f.cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			diff := diffDomains(t)[domain]
			sel := NewL2QBAL()
			fired := mustRun(t, diff.sessionWith(diff.diffConfig(), dm), sel, 3)
			want := mustRun(t, diff.sessionWith(diff.diffConfig(), ref), sel, 3)
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("learned model fired %v, reference model fired %v", fired, want)
			}
			if len(fired) == 0 {
				t.Fatal("no queries fired")
			}
		})
	}
}
