package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

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
	dm     *core.DomainModel
	cfg    core.Config
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
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
	var domain []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, engine: engine, rec: rec, y: y, dm: dm, cfg: cfg}
}

// session builds e's harvest session over the fixture engine; a positive
// fetchDelay puts every fetch behind a slowRetriever of that delay — the
// one way these tests model a remote engine.
func (f *fixture) session(e *corpus.Entity, fetchDelay time.Duration) *core.Session {
	s := core.NewSession(f.cfg, f.engine, e, synth.AspResearch, f.y, f.dm, f.rec, uint64(e.ID)+1)
	if fetchDelay > 0 {
		s.Engine = slowRetriever{Retriever: f.engine, delay: fetchDelay}
	}
	return s
}

func (f *fixture) targets(n int) []*corpus.Entity {
	ents := f.g.Corpus.Entities
	return ents[len(ents)-n:]
}

// TestPipelineMatchesSequential is the correctness core: the interleaved
// scheduler must produce exactly the same fired queries and gathered pages
// as running each session sequentially.
func TestPipelineMatchesSequential(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(6)
	const nQueries = 3

	// Sequential reference.
	type outcome struct {
		fired []core.Query
		pages []corpus.PageID
	}
	want := make([]outcome, len(targets))
	for i, e := range targets {
		s := f.session(e, 0)
		fired := mustRun(t, s, core.NewL2QBAL(), nQueries)
		var ids []corpus.PageID
		for _, p := range s.Pages() {
			ids = append(ids, p.ID)
		}
		want[i] = outcome{fired: fired, pages: ids}
	}

	// Pipelined run with fresh sessions.
	jobs := make([]Job, len(targets))
	sessions := make([]*core.Session, len(targets))
	for i, e := range targets {
		sessions[i] = f.session(e, 0)
		jobs[i] = Job{Session: sessions[i], Selector: core.NewL2QBAL(), NQueries: nQueries}
	}
	results := Run(context.Background(), Config{SelectWorkers: 3, FetchWorkers: 8}, jobs)

	for i := range targets {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
		if !reflect.DeepEqual(results[i].Fired, want[i].fired) {
			t.Errorf("job %d fired %v, want %v", i, results[i].Fired, want[i].fired)
		}
		var ids []corpus.PageID
		for _, p := range sessions[i].Pages() {
			ids = append(ids, p.ID)
		}
		if !reflect.DeepEqual(ids, want[i].pages) {
			t.Errorf("job %d pages %v, want %v", i, ids, want[i].pages)
		}
	}
}

// TestStepCtxMatchesScheduler: the scheduler (FetchQueryCtx under the
// fetch gate, Select and Ingest under the select gate) and the synchronous
// BootstrapCtx + StepCtx take each step through the same three Session
// calls, so the same jobs driven both ways agree after every step on the
// fired queries, the gathered pages, R_E(Φ), R*_E(Φ) and the trace record.
// SelectionTime is a clock reading, so the records are compared without
// it; both drivers must report a non-zero sum of it.
func TestStepCtxMatchesScheduler(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	const nQueries = 3
	type stepState struct {
		rec   core.TraceRecord // carries RPhi and RStarPhi
		fired []core.Query
		pages []corpus.PageID
	}
	record := func(s *core.Session) *[]stepState {
		states := new([]stepState)
		s.Trace = func(tr core.TraceRecord) {
			st := stepState{rec: tr, fired: append([]core.Query(nil), s.Fired()...)}
			for _, p := range s.Pages() {
				st.pages = append(st.pages, p.ID)
			}
			*states = append(*states, st)
		}
		return states
	}

	var jobs []Job
	var stepped, scheduled []*[]stepState
	for _, newSel := range []func() core.Selector{core.NewL2QBAL, core.NewRT, core.NewP, core.NewRND} {
		for _, e := range f.targets(3) {
			s := f.session(e, 0)
			stepped = append(stepped, record(s))
			if _, err := s.BootstrapCtx(ctx); err != nil {
				t.Fatal(err)
			}
			sel := newSel()
			for i := 0; i < nQueries; i++ {
				_, ok, err := s.StepCtx(ctx, sel)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			js := f.session(e, 0)
			scheduled = append(scheduled, record(js))
			jobs = append(jobs, Job{Session: js, Selector: newSel(), NQueries: nQueries})
		}
	}
	var steppedSel, scheduledSel time.Duration
	for i, r := range Run(ctx, Config{SelectWorkers: 2, FetchWorkers: 4}, jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want, got := *stepped[i], *scheduled[i]
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("job %d (%s): %d scheduled steps, %d StepCtx steps", i, jobs[i].Selector.Name(), len(got), len(want))
		}
		for k := range want {
			steppedSel += want[k].rec.SelectionTime
			scheduledSel += got[k].rec.SelectionTime
			want[k].rec.SelectionTime, got[k].rec.SelectionTime = 0, 0
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("job %d (%s) step %d:\n scheduled %+v\n StepCtx   %+v", i, jobs[i].Selector.Name(), k+1, got[k], want[k])
			}
		}
	}
	if steppedSel <= 0 || scheduledSel <= 0 {
		t.Errorf("summed selection time: StepCtx %v, scheduler %v; want both > 0", steppedSel, scheduledSel)
	}
}

// TestPipelineOverlapsFetches verifies the point of the exercise: with
// slow fetches (a slowRetriever), the pipeline completes many entities in less
// wall time than running them back to back. The sequential baseline is
// measured in-process so the comparison stays valid under -race (where
// CPU-bound selection inflates ~10×).
func TestPipelineOverlapsFetches(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(8)
	const nQueries = 2
	const perFetch = 30 * time.Millisecond

	makeJobs := func() []Job {
		jobs := make([]Job, len(targets))
		for i, e := range targets {
			jobs[i] = Job{Session: f.session(e, perFetch), Selector: core.NewRT(), NQueries: nQueries}
		}
		return jobs
	}

	// Sequential baseline: same work, one entity at a time.
	seqJobs := makeJobs()
	seqStart := time.Now()
	for i := range seqJobs {
		s := seqJobs[i].Session
		mustRun(t, s, seqJobs[i].Selector, seqJobs[i].NQueries)
	}
	sequential := time.Since(seqStart)

	pipeJobs := makeJobs()
	pipeStart := time.Now()
	results := Run(context.Background(), Config{SelectWorkers: 2, FetchWorkers: 16}, pipeJobs)
	pipelined := time.Since(pipeStart)

	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
	}
	if pipelined > sequential*8/10 {
		t.Errorf("pipeline %v vs sequential %v: no meaningful overlap", pipelined, sequential)
	}
}

func TestPipelineCancellation(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)

	jobs := make([]Job, len(targets))
	for i, e := range targets {
		jobs[i] = Job{Session: f.session(e, time.Second), Selector: core.NewRT(), NQueries: 50}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	results := Run(ctx, Config{SelectWorkers: 2, FetchWorkers: 4}, jobs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	canceled := 0
	for _, r := range results {
		if r.Err != nil {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("expected at least one job cut short by cancellation")
	}
}

// slowRetriever is a remote-shaped engine: searches block for delay (as a
// slow HTTP fetch would) but honor context cancellation, like
// webapi.Client. It wraps the fixture engine for actual results.
type slowRetriever struct {
	core.Retriever
	delay time.Duration
	// entered, when non-nil, is signalled without blocking as each search
	// begins: a test's event for "a slow fetch is in flight".
	entered chan<- struct{}
}

func (r slowRetriever) Retrieve(ctx context.Context, dst []search.Result, seed, query []string) ([]search.Result, error) {
	if r.entered != nil {
		select {
		case r.entered <- struct{}{}:
		default:
		}
	}
	t := time.NewTimer(r.delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return r.Retriever.Retrieve(ctx, dst, seed, query)
}

// failingRetriever fails every search with a persistent transport error
// (what a webapi.Client returns once its retry budget is exhausted).
type failingRetriever struct {
	core.Retriever
	err error
}

func (r failingRetriever) Retrieve(context.Context, []search.Result, []string, []string) ([]search.Result, error) {
	return nil, r.err
}

// TestPipelineCancellationLatency is the regression test for the fetch
// stage ignoring ctx: a worker blocked in a slow remote fetch used to hold
// wg.Wait() hostage until the transport's own timeout (up to 30 s for the
// HTTP client). With ctx propagated into Session.FetchQueryCtx, Run must
// return within milliseconds of cancellation even with 20-second fetches
// in flight; it is canceled once the first of them has begun.
func TestPipelineCancellationLatency(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	entered := make(chan struct{}, 1)
	jobs := make([]Job, len(targets))
	for i, e := range targets {
		sess := f.session(e, 0)
		sess.Engine = slowRetriever{Retriever: f.engine, delay: 20 * time.Second, entered: entered}
		jobs[i] = Job{Session: sess, Selector: core.NewRT(), NQueries: 5}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-entered:
		case <-ctx.Done():
		}
		cancel()
	}()
	start := time.Now()
	results := Run(ctx, Config{SelectWorkers: 2, FetchWorkers: 4}, jobs)
	elapsed := time.Since(start)
	// ~100 ms is the target; 2 s leaves headroom for -race CI boxes while
	// still proving we did not wait out the 20 s fetches.
	if elapsed > 2*time.Second {
		t.Fatalf("Run returned %v after cancellation, want ~100ms", elapsed)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("job %d finished despite its 20s fetches being canceled", i)
		}
	}
}

// TestPipelineFetchErrorSurfaces: a transport failure the retriever could
// not retry away finishes the job with that error instead of ingesting an
// empty result set as an "unproductive query".
func TestPipelineFetchErrorSurfaces(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(2)
	sentinel := errors.New("transport down after retries")
	jobs := make([]Job, len(targets))
	for i, e := range targets {
		s := f.session(e, 0)
		s.Engine = failingRetriever{Retriever: f.engine, err: sentinel}
		jobs[i] = Job{Session: s, Selector: core.NewRT(), NQueries: 3}
	}
	results := Run(context.Background(), Config{SelectWorkers: 2, FetchWorkers: 4}, jobs)
	for i, r := range results {
		if !errors.Is(r.Err, sentinel) {
			t.Errorf("job %d err = %v, want the transport error", i, r.Err)
		}
		if len(jobs[i].Session.Pages()) != 0 {
			t.Errorf("job %d ingested %d pages from a dead transport", i, len(jobs[i].Session.Pages()))
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	results := Run(context.Background(), Config{}, []Job{{}})
	if results[0].Err == nil {
		t.Error("empty job accepted")
	}
	if out := Run(context.Background(), Config{}, nil); len(out) != 0 {
		t.Errorf("nil jobs returned %d results", len(out))
	}
}

func TestPipelineZeroQueryBudget(t *testing.T) {
	f := newFixture(t)
	e := f.targets(1)[0]
	s := f.session(e, 0)
	results := Run(context.Background(), Config{}, []Job{
		{Session: s, Selector: core.NewP(), NQueries: 0},
	})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if len(results[0].Fired) != 0 {
		t.Errorf("fired %v with zero budget", results[0].Fired)
	}
	// The seed bootstrap must still have happened.
	if len(s.Pages()) == 0 {
		t.Error("seed results not ingested")
	}
}

// TestPipelineRaceTraceSharedEngine is the concurrency proof for the
// incremental-inference refactor: a full pipeline run where every session
// keeps a persistent session graph, all sessions share ONE cached engine
// (shared query cache under concurrent searches), and every session has
// a Trace callback appending into shared test state. Run under -race (CI
// always does), any unsynchronized access in the session graph, the
// shared cache, or trace delivery fails the suite.
func TestPipelineRaceTraceSharedEngine(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(6)
	const nQueries = 2

	shared := search.NewEngineOpts(search.BuildIndex(f.g.Corpus.Pages), search.Options{})
	var mu sync.Mutex
	traces := make(map[corpus.EntityID][]core.TraceRecord)

	jobs := make([]Job, len(targets))
	for i, e := range targets {
		s := f.session(e, 0)
		s.Engine = shared
		id := e.ID
		s.Trace = func(tr core.TraceRecord) {
			mu.Lock()
			traces[id] = append(traces[id], tr)
			mu.Unlock()
		}
		jobs[i] = Job{Session: s, Selector: core.NewL2QBAL(), NQueries: nQueries}
	}
	results := Run(context.Background(), Config{SelectWorkers: 4, FetchWorkers: 8}, jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if len(r.Fired) != nQueries {
			t.Errorf("job %d fired %d queries, want %d", i, len(r.Fired), nQueries)
		}
	}
	for _, e := range targets {
		recs := traces[e.ID]
		if len(recs) != nQueries {
			t.Fatalf("entity %d: %d trace records, want %d", e.ID, len(recs), nQueries)
		}
		for j, tr := range recs {
			if tr.Iteration != j+1 {
				t.Errorf("entity %d trace %d: iteration %d", e.ID, j, tr.Iteration)
			}
			if tr.Query == "" || tr.TotalPages == 0 {
				t.Errorf("entity %d trace %d: empty record %+v", e.ID, j, tr)
			}
		}
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
