package webapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/harvest"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// harvestFixture is a fixture whose server has the batch-harvest backend
// enabled (ground-truth Y, lazily-learned cached domain model).
type harvestFixture struct {
	g      *synth.Generated
	engine *search.Engine
	server *Server
	srv    *httptest.Server
	client *Client
	cfg    core.Config
	y      func(*corpus.Page) bool
	dm     *core.DomainModel
	rec    types.Recognizer
	aspect corpus.Aspect
}

func newHarvestFixture(t testing.TB) *harvestFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)
	engine := live.View()
	aspect := synth.AspResearch
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
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

	server := NewServer(g.Corpus, live, nil)
	server.Harvest = &harvest.Backend{
		Cfg:     cfg,
		Aspects: []corpus.Aspect{aspect},
		Y:       func(corpus.Aspect) func(*corpus.Page) bool { return y },
		Rec:     rec,
		DomainModel: func(corpus.Aspect) (*core.DomainModel, error) {
			return dm, nil
		},
	}
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	// Reap the shared scheduler's job goroutines (httptest never calls
	// Server.Shutdown, which otherwise owns this).
	t.Cleanup(func() { server.harvestJobs().Close() })
	client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &harvestFixture{g: g, engine: engine, server: server, srv: srv,
		client: client, cfg: cfg, y: y, dm: dm, rec: rec, aspect: aspect}
}

// TestHarvestEndpointParity: the server-side batch harvest produces, for
// every entity, exactly the fired queries and gathered pages of a local
// session with the same seed — and streams per-iteration progress events
// in order on the way. Through a 3-node cluster a harvest is a remote
// session against the coordinator server, held to the same bar; the
// coordinator's own jobs API answers 501, harvest.Backend attached or not.
func TestHarvestEndpointParity(t *testing.T) {
	f := newHarvestFixture(t)
	targets := jobTargets(f, 3)
	const nQueries = 2
	t.Run("single-node", func(t *testing.T) { testHarvestEndpointParity(t, f, f.client, targets, nQueries) })
	t.Run("coordinator", func(t *testing.T) {
		coServer := NewCoordinatorServer(dialCluster(t, startClusterNodes(t, f.g, 3, 2, nil), 2, 0))
		coServer.Harvest = f.server.Harvest
		coSrv := httptest.NewServer(coServer.Handler())
		t.Cleanup(coSrv.Close)
		coClient, err := DialContext(context.Background(), coSrv.URL, f.g.Tokenizer, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		err = coClient.HarvestBatch(context.Background(), harvest.Request{Entities: targets, Aspect: string(f.aspect), NQueries: nQueries}, nil)
		var te *TransportError
		if !errors.As(err, &te) || te.Status != http.StatusNotImplemented {
			t.Errorf("a job on the coordinator: %v, want 501", err)
		}
		for _, id := range targets {
			wantFired, wantPages := f.localReference(t, id, nQueries)
			gotFired, gotPages := f.harvestVia(t, coClient, id, nQueries)
			if len(wantFired) == 0 || !reflect.DeepEqual(gotFired, wantFired) || !reflect.DeepEqual(gotPages, wantPages) {
				t.Errorf("entity %d through the coordinator: fired %v pages %v, local %v %v", id, gotFired, gotPages, wantFired, wantPages)
			}
		}
	})
}

func testHarvestEndpointParity(t *testing.T, f *harvestFixture, client *Client, targets []corpus.EntityID, nQueries int) {
	var mu sync.Mutex
	progress := make(map[corpus.EntityID][]harvest.Event)
	finished := make(map[corpus.EntityID]harvest.Event)
	var done *harvest.Event
	err := client.HarvestBatch(context.Background(), harvest.Request{
		Entities: targets,
		Aspect:   string(f.aspect),
		Strategy: "L2QBAL",
		NQueries: nQueries,
	}, func(ev harvest.Event) error {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case "progress":
			progress[ev.Entity] = append(progress[ev.Entity], ev)
		case "entity":
			finished[ev.Entity] = ev
		case "error":
			t.Errorf("unexpected error event: %+v", ev)
		case "done":
			done = &ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done == nil || done.Entities != len(targets) || done.Failed != 0 {
		t.Fatalf("done summary %+v, want %d entities, 0 failed", done, len(targets))
	}

	for _, id := range targets {
		wantFired, wantPages := f.localReference(t, id, nQueries)

		got, ok := finished[id]
		if !ok {
			t.Fatalf("entity %d: no completion event", id)
		}
		gotFired := make([]core.Query, len(got.Fired))
		for i, q := range got.Fired {
			gotFired[i] = core.Query(q)
		}
		if !reflect.DeepEqual(gotFired, wantFired) {
			t.Errorf("entity %d fired %v, want %v", id, gotFired, wantFired)
		}
		if !reflect.DeepEqual(got.Pages, wantPages) {
			t.Errorf("entity %d pages %v, want %v", id, got.Pages, wantPages)
		}

		recs := progress[id]
		if len(recs) != len(wantFired) {
			t.Errorf("entity %d: %d progress events, want %d", id, len(recs), len(wantFired))
			continue
		}
		for i, ev := range recs {
			if ev.Iteration != i+1 {
				t.Errorf("entity %d progress %d: iteration %d", id, i, ev.Iteration)
			}
			if core.Query(ev.Query) != wantFired[i] {
				t.Errorf("entity %d progress %d: query %q, want %q", id, i, ev.Query, wantFired[i])
			}
		}
	}
}

// TestHarvestUnknownEntity: a bogus ID yields a per-entity error event;
// the rest of the batch completes.
func TestHarvestUnknownEntity(t *testing.T) {
	f := newHarvestFixture(t)
	n := f.g.Corpus.NumEntities()
	good := f.g.Corpus.Entities[n-1].ID
	const bogus = corpus.EntityID(99999)

	var errEvents, entityEvents int
	var done harvest.Event
	err := f.client.HarvestBatch(context.Background(), harvest.Request{
		Entities: []corpus.EntityID{bogus, good},
		Aspect:   string(f.aspect),
		NQueries: 1,
	}, func(ev harvest.Event) error {
		switch ev.Type {
		case "error":
			errEvents++
			if ev.Entity != bogus {
				t.Errorf("error event for entity %d, want %d", ev.Entity, bogus)
			}
		case "entity":
			entityEvents++
			if ev.Entity != good {
				t.Errorf("entity event for %d, want %d", ev.Entity, good)
			}
		case "done":
			done = ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if errEvents != 1 || entityEvents != 1 {
		t.Errorf("%d error and %d entity events, want 1 and 1", errEvents, entityEvents)
	}
	if done.Failed != 1 || done.Entities != 2 {
		t.Errorf("done summary %+v, want 2 entities 1 failed", done)
	}
}

// TestHarvestValidation covers the request-level rejections.
func TestHarvestValidation(t *testing.T) {
	f := newHarvestFixture(t)
	resuming := func(entities []corpus.EntityID, resume ...corpus.EntityID) harvest.Request {
		req := harvest.Request{Entities: entities, Aspect: string(f.aspect), NQueries: 1}
		for _, id := range resume {
			req.Resume = append(req.Resume, core.Checkpoint{Entity: id, Aspect: f.aspect})
		}
		return req
	}
	tooMany := make([]corpus.EntityID, 64+1) // one past the jobs API's bound
	for i := range tooMany {
		tooMany[i] = corpus.EntityID(i)
	}
	cases := []struct {
		name string
		req  harvest.Request
		want int
	}{
		{"no entities", harvest.Request{Aspect: string(f.aspect)}, http.StatusBadRequest},
		{"unknown aspect", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: "NOPE"}, http.StatusBadRequest},
		{"unknown strategy", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), Strategy: "HODL"}, http.StatusBadRequest},
		// The §VI-C baselines are named methods, but not server-side ones.
		{"baseline LM", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), Strategy: "LM"}, http.StatusBadRequest},
		{"baseline AQ", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), Strategy: "AQ"}, http.StatusBadRequest},
		{"baseline HR", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), Strategy: "HR"}, http.StatusBadRequest},
		{"baseline MQ", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), Strategy: "MQ"}, http.StatusBadRequest},
		{"negative budget", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), NQueries: -1}, http.StatusBadRequest},
		{"budget over cap", harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), NQueries: 10000}, http.StatusBadRequest},
		{"too many entities", harvest.Request{Entities: tooMany, Aspect: string(f.aspect), NQueries: 1}, http.StatusBadRequest},
		// One session per entity: a repeat would overwrite its own resume state.
		{"repeated entity", resuming([]corpus.EntityID{22, 23, 22}), http.StatusBadRequest},
		{"resume for an entity not requested", resuming([]corpus.EntityID{22}, 23), http.StatusBadRequest},
		{"resume twice for one entity", resuming([]corpus.EntityID{22, 23}, 22, 22), http.StatusBadRequest},
	}
	for _, tc := range cases {
		err := f.client.HarvestBatch(context.Background(), tc.req, nil)
		var te *TransportError
		if !errors.As(err, &te) || te.Status != tc.want {
			t.Errorf("%s: error %v, want status %d", tc.name, err, tc.want)
		}
	}

	// Strategy names are case-insensitive.
	lower := harvest.Request{Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), Strategy: "l2qbal", NQueries: 1}
	if err := f.client.HarvestBatch(context.Background(), lower, nil); err != nil {
		t.Errorf("strategy l2qbal: %v", err)
	}

	// A server without a backend answers 501.
	plain := httptest.NewServer(NewServer(f.g.Corpus, bootLive(f.g.Corpus), nil).Handler())
	defer plain.Close()
	bare, err := DialContext(context.Background(), plain.URL, f.g.Tokenizer, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = bare.HarvestBatch(context.Background(), harvest.Request{
		Entities: []corpus.EntityID{0}, Aspect: string(f.aspect), NQueries: 1}, nil)
	var te *TransportError
	if !errors.As(err, &te) || te.Status != http.StatusNotImplemented {
		t.Errorf("harvest against plain server: %v, want 501", err)
	}
}

// TestHarvestShutdownGraceful: Shutdown cancels an in-flight batch harvest
// (the stream terminates promptly) instead of deadlocking the drain behind
// an arbitrarily long run — and the caller is told: a stream the shutdown
// cut short of its done line is an error, not a finished harvest.
func TestHarvestShutdownGraceful(t *testing.T) {
	f := newHarvestFixture(t)
	// Serve over a real listener so Shutdown exercises the full path.
	addr, err := f.server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialContext(context.Background(), addr, f.g.Tokenizer, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var targets []corpus.EntityID
	for _, e := range f.g.Corpus.Entities {
		targets = append(targets, e.ID)
	}
	if len(targets) > 8 {
		targets = targets[len(targets)-8:]
	}

	// The shutdown is fired by the harvest itself, at its first progress
	// event: the batch is certainly in flight, on any machine.
	inFlight := make(chan struct{})
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-inFlight
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := f.server.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	start := time.Now()
	var once sync.Once
	sawDone := false
	// A big budget: without cancellation this would run much longer than
	// the shutdown window.
	err = client.HarvestBatch(context.Background(), harvest.Request{
		Entities: targets,
		Aspect:   string(f.aspect),
		NQueries: 40,
	}, func(ev harvest.Event) error {
		if ev.Type == "progress" {
			once.Do(func() { close(inFlight) })
		}
		sawDone = sawDone || ev.Type == "done"
		return nil
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("harvest stream survived shutdown for %v", elapsed)
	}
	if (err == nil) != sawDone {
		t.Errorf("HarvestBatch returned %v with done seen = %v; a stream without done must be an error", err, sawDone)
	}
	var te *TransportError
	if err != nil && !errors.As(err, &te) {
		t.Errorf("cut stream reported as %v, want a *TransportError", err)
	}
	<-shutdownDone
}

// TestHarvestBatchIsAJob: HarvestBatch is submit + follow + DELETE on the
// way out. While it streams the server's registry holds its one job,
// running; once it returns the registry is empty; and a caller that leaves
// early — onEvent fails — gets its own error back verbatim and leaves the
// job canceled, not running on. One entity's relevance function is held
// in-package, so "still running" is a fact in both halves, not a race.
func TestHarvestBatchIsAJob(t *testing.T) {
	f := newHarvestFixture(t)
	targets := jobTargets(f, 3)
	held := targets[0]
	var hold atomic.Pointer[chan struct{}] // non-nil: pages of held wait for it to close
	entered := make(chan struct{}, 1)

	backend := *f.server.Harvest
	backend.Y = func(corpus.Aspect) func(*corpus.Page) bool {
		return func(p *corpus.Page) bool {
			if ch := hold.Load(); ch != nil && p.Entity == held {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-*ch
			}
			return f.y(p)
		}
	}
	server := NewServer(f.g.Corpus, bootLive(f.g.Corpus), nil)
	server.Harvest = &backend
	// Two workers per pool whatever GOMAXPROCS says: the held entity
	// occupies one, the others must keep harvesting.
	server.jobsOnce.Do(func() {
		server.jobs = harvest.NewJobs(server.ctx, pipeline.Config{SelectWorkers: 2, FetchWorkers: 2})
	})
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { server.Shutdown(context.Background()) })
	client, err := DialContext(context.Background(), srv.URL, f.g.Tokenizer, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	registered := func() int { return registeredJobs(server) }
	req := harvest.Request{Entities: targets, Aspect: string(f.aspect), NQueries: 2}

	// A batch that stays to the end.
	release := make(chan struct{})
	hold.Store(&release)
	result := make(chan error, 1)
	sawDone := false
	go func() {
		result <- client.HarvestBatch(context.Background(), req, func(ev harvest.Event) error {
			sawDone = sawDone || ev.Type == "done"
			return nil
		})
	}()
	<-entered // the job is on the scheduler and cannot finish
	m, err := client.ServerMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs[harvest.JobQueued]+m.Jobs[harvest.JobRunning] != 1 || registered() != 1 {
		t.Errorf("while HarvestBatch streams: jobs %v, %d registered; want its one job, queued or running", m.Jobs, registered())
	}
	close(release)
	if err := <-result; err != nil || !sawDone {
		t.Fatalf("HarvestBatch: %v (done seen = %v)", err, sawDone)
	}
	if n := registered(); n != 0 {
		t.Errorf("%d jobs registered after HarvestBatch returned, want none retained", n)
	}

	// A caller that leaves at the first progress event. The held entity
	// keeps the job from finishing first, so the DELETE finds it running.
	release = make(chan struct{})
	hold.Store(&release)
	errLeft := errors.New("caller left")
	err = client.HarvestBatch(context.Background(), req, func(ev harvest.Event) error {
		if ev.Type == "progress" {
			return errLeft
		}
		return nil
	})
	close(release)
	if err != errLeft {
		t.Fatalf("HarvestBatch returned %v, want onEvent's error verbatim", err)
	}
	j := server.harvestJobs().Get("j2") // the second job this server accepted
	if j == nil {
		t.Fatal("the job of a caller that left early is gone; it should be canceled and kept for its checkpoints")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st := waitFinal(ctx, t, j); st.State != harvest.JobCanceled {
		t.Errorf("job ended as %+v, want canceled", st)
	}
}
