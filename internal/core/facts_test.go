package core_test

import (
	"context"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// TestSharedCandidateFactsMatchUncached: the session-independent candidate
// facts — tokens, template keys, domain counting priors — are computed
// once per query vertex; for a domain model's own Candidates once per
// model, and for page n-grams once per model while its memo holds them,
// shared by every session over it. Twelve sessions over ONE DomainModel
// run concurrently through a pipeline.Scheduler (under -race this is the
// test that sees the lazily built shared table, and the memo the sessions
// read and write, from several goroutines); afterwards every vertex of
// every session — domain candidate or page n-gram — must hold exactly
// what an uncached computation from the query string gives, the domain
// candidates must really be the shared copy, and the page n-grams must
// really come out of the memo, some entry serving more than one session.
func TestSharedCandidateFactsMatchUncached(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	n := g.Corpus.NumEntities()
	var domain []corpus.EntityID
	for i := 0; i < n/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		t.Fatal(err)
	}

	// One strategy per utility family, so the shared facts feed the
	// template vertices of a solve as well as the collective priors.
	selectors := []core.Selector{core.NewL2QBAL(), core.NewPT(), core.NewRT()}
	const nSessions = 12
	jobs := make([]pipeline.Job, nSessions)
	for i := range jobs {
		e := g.Corpus.Entities[n-1-i%(n/2)]
		jobs[i] = pipeline.Job{
			Session:  core.NewSession(cfg, engine, e, aspect, y, dm, rec, uint64(i)+1),
			Selector: selectors[i%len(selectors)],
			NQueries: 3,
		}
	}
	sched := pipeline.New(pipeline.Config{SelectWorkers: 4, FetchWorkers: 8})
	defer sched.Close()
	batch, err := sched.Submit(context.Background(), jobs, pipeline.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	memoized := 0
	for i, res := range batch.Await(context.Background()) {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if len(res.Fired) == 0 {
			t.Fatalf("job %d fired nothing", i)
		}
		vertices, shared, memo, err := jobs[i].Session.VerifyCandidateFacts()
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Selector.Name(), err)
		}
		if vertices == 0 || shared == 0 || memo == 0 {
			t.Fatalf("job %d: %d vertices, %d from the shared table, %d from the memo — sharing did not happen",
				i, vertices, shared, memo)
		}
		memoized += memo
	}
	if entries := dm.MemoEntries(); entries == 0 || memoized <= entries {
		t.Fatalf("%d vertices alias the memo's %d entries: no entry served two sessions", memoized, entries)
	}

	// A session with another recognizer must not be handed the table
	// built for the first one: it computes its own facts, and they are
	// still exactly the uncached ones.
	other := core.NewSession(cfg, engine, g.Corpus.Entities[n-1], aspect, y, dm,
		types.NewRegexRecognizer(), 1)
	if fired, err := other.RunCtx(context.Background(), core.NewL2QBAL(), 2); err != nil || len(fired) == 0 {
		t.Fatalf("session with its own recognizer fired %v (err %v)", fired, err)
	}
	if _, shared, memo, err := other.VerifyCandidateFacts(); err != nil || shared != 0 || memo != 0 {
		t.Fatalf("other recognizer: shared=%d memo=%d err=%v (want unshared, exact)", shared, memo, err)
	}
}

// TestSharedFactsAcrossAspects: a System's sessions of different aspects
// share one vocabulary and one facts table. Sessions of three aspect models
// of one Config run concurrently through a pipeline.Scheduler — under
// -race, the test in which they grow the vocabulary and fill the table
// from several goroutines at once, each model adding its own priors to
// entries another model's sessions created. Afterwards every vertex of
// every session holds exactly the uncached facts, the Config has one
// table, and some entries carry the priors of more than one model.
func TestSharedFactsAcrossAspects(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	n := g.Corpus.NumEntities()
	var domain []corpus.EntityID
	for i := 0; i < n/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	aspects := []corpus.Aspect{synth.AspResearch, synth.AspAward, synth.AspEducation}
	models := make([]*core.DomainModel, len(aspects))
	for i, a := range aspects {
		y := func(p *corpus.Page) bool { return classify.GroundTruth(p, a) }
		if models[i], err = core.LearnDomain(cfg, a, g.Corpus, domain, y, rec); err != nil {
			t.Fatal(err)
		}
	}

	var jobs []pipeline.Job
	for i := 0; i < 4; i++ {
		e := g.Corpus.Entities[n-1-i]
		for k, a := range aspects {
			y := func(p *corpus.Page) bool { return classify.GroundTruth(p, a) }
			jobs = append(jobs, pipeline.Job{
				Session:  core.NewSession(cfg, engine, e, a, y, models[k], rec, uint64(i)+1),
				Selector: core.NewL2QBAL(),
				NQueries: 3,
			})
		}
	}
	sched := pipeline.New(pipeline.Config{SelectWorkers: 4, FetchWorkers: 8})
	defer sched.Close()
	batch, err := sched.Submit(context.Background(), jobs, pipeline.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch.Await(context.Background()) {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if _, _, _, err := jobs[i].Session.VerifyCandidateFacts(); err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Session.Aspect, err)
		}
	}
	tables, terms, entries, across := cfg.SharedFacts()
	if tables != 1 || terms == 0 || entries == 0 {
		t.Fatalf("%d tables, %d terms, %d entries: the sessions did not share one vocabulary and table", tables, terms, entries)
	}
	if across == 0 {
		t.Fatalf("none of %d entries serves more than one aspect model", entries)
	}
}
