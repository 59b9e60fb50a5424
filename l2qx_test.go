package l2q

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testSystem(t *testing.T, d Domain) *System {
	t.Helper()
	sys, err := NewSyntheticSystem(d, SystemOptions{NumEntities: 20, PagesPerEntity: 14, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestUseCRFClassifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("CRF training is seconds-scale")
	}
	sys := testSystem(t, Cars)
	aspect := sys.Aspects()[0]
	nbAcc := sys.ClassifierAccuracy(aspect, sys.Corpus().Pages)
	if err := sys.UseCRFClassifiers(); err != nil {
		t.Fatal(err)
	}
	crfAcc := sys.ClassifierAccuracy(aspect, sys.Corpus().Pages)
	if crfAcc < 0.9 {
		t.Errorf("CRF accuracy %.3f (NB was %.3f)", crfAcc, nbAcc)
	}
	// Harvesting still works with the swapped family.
	e := sys.Corpus().Entities[0]
	h := sys.NewHarvester(e, aspect, nil)
	if fired := mustRun(t, h, NewP(), 2); len(fired) == 0 {
		t.Error("no queries fired under CRF classifiers")
	}
}

func TestSaveLoadStoreRoundTrip(t *testing.T) {
	sys := testSystem(t, Researchers)
	path := filepath.Join(t.TempDir(), "sys.l2q")
	if err := sys.SaveStore(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Corpus.NumPages() != sys.Corpus().NumPages() {
		t.Errorf("pages %d, want %d", b.Corpus.NumPages(), sys.Corpus().NumPages())
	}
	if b.Index == nil || b.Index.NumDocs() != sys.Corpus().NumPages() {
		t.Error("index missing or wrong size")
	}
}

// TestHarvestPipelinedMatchesHarvestMany: harvesting many entities through
// the interleaved scheduler fires, for every entity, exactly the queries
// and gathers exactly the pages of one sequential Run of a harvester with
// the same per-entity seed (id+1, HarvestPipelined's convention).
func TestHarvestPipelinedMatchesHarvestMany(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain(aspect, ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	targets := ids[15:]

	pipe := sys.HarvestPipelined(context.Background(), targets, aspect, dm, NewL2QBAL(), 2)
	if len(pipe) != len(targets) {
		t.Fatalf("%d results for %d targets", len(pipe), len(targets))
	}
	for i, id := range targets {
		if pipe[i].Err != nil {
			t.Fatalf("pipeline job %d: %v", i, pipe[i].Err)
		}
		h := sys.NewHarvesterSeeded(sys.Corpus().Entity(id), aspect, dm, uint64(id)+1)
		fired := mustRun(t, h, NewL2QBAL(), 2)
		if len(fired) == 0 || len(h.Pages()) == 0 {
			t.Fatalf("entity %d: sequential run fired %v and gathered %d pages", i, fired, len(h.Pages()))
		}
		if !reflect.DeepEqual(fired, pipe[i].Fired) {
			t.Errorf("entity %d fired %v vs %v", i, fired, pipe[i].Fired)
		}
		var a, b []PageID
		for _, p := range h.Pages() {
			a = append(a, p.ID)
		}
		for _, p := range pipe[i].Pages {
			b = append(b, p.ID)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("entity %d pages %v vs %v", i, a, b)
		}
	}
}

// TestHarvestPipelinedUnknownEntity: the pipelined variant keeps one
// result per requested ID (unknown IDs no longer shift every later result
// off its entity) and reports the failure per entity.
func TestHarvestPipelinedUnknownEntity(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	const bogus = EntityID(99999)
	targets := []EntityID{ids[len(ids)-1], bogus, ids[len(ids)-2]}

	results := sys.HarvestPipelined(context.Background(), targets, aspect, nil, NewP(), 1)
	if len(results) != len(targets) {
		t.Fatalf("%d results for %d targets (alignment lost)", len(results), len(targets))
	}
	if results[1].Err == nil || results[1].Entity != nil {
		t.Fatalf("unknown entity slot = %+v, want explicit error with nil Entity", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("valid entity %d errored: %v", i, results[i].Err)
		}
		if results[i].Entity == nil || results[i].Entity.ID != targets[i] {
			t.Errorf("result %d not aligned with its target", i)
		}
		if len(results[i].Pages) == 0 {
			t.Errorf("valid entity %d gathered nothing", i)
		}
	}
}

func TestSystemCrawl(t *testing.T) {
	sys := testSystem(t, Cars)
	e := sys.Corpus().Entities[0]
	res := sys.Crawl(e, sys.Aspects()[0], 12)
	if res.Fetches == 0 || res.Fetches > 12 {
		t.Errorf("fetches = %d", res.Fetches)
	}
	if len(res.Pages) != res.Fetches {
		t.Errorf("pages %d != fetches %d", len(res.Pages), res.Fetches)
	}
}

func TestRemoteHarvestParity(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain(aspect, ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	e := sys.Corpus().Entities[len(ids)-1]

	srv := sys.NewSearchServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	re, err := sys.DialRemoteContext(context.Background(), addr, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	local := sys.NewHarvesterSeeded(e, aspect, dm, 1)
	localFired := mustRun(t, local, NewL2QBAL(), 2)
	remote := sys.NewRemoteHarvester(re, e, aspect, dm)
	remoteFired := mustRun(t, remote, NewL2QBAL(), 2)

	if !reflect.DeepEqual(localFired, remoteFired) {
		t.Errorf("fired %v locally, %v remotely", localFired, remoteFired)
	}
	if re.Requests() == 0 {
		t.Error("remote harvest issued no HTTP requests")
	}
}

func TestRenderPageHTML(t *testing.T) {
	sys := testSystem(t, Cars)
	doc := RenderPageHTML(sys.Corpus().Pages[0])
	if len(doc) == 0 || doc[0] != '<' {
		t.Errorf("implausible HTML: %.40q", doc)
	}
}

func TestDialRemoteErrors(t *testing.T) {
	sys := testSystem(t, Cars)
	if _, err := sys.DialRemoteContext(context.Background(), "127.0.0.1:1", RemoteOptions{}); err == nil {
		t.Error("dial to a closed port succeeded")
	}
}

func TestLoadStoreMissingFile(t *testing.T) {
	if _, err := LoadStore("/nonexistent/path.l2q"); err == nil {
		t.Error("missing store file accepted")
	}
}

func TestHarvestPipelinedReportsUnknownEntities(t *testing.T) {
	sys := testSystem(t, Cars)
	aspect := sys.Aspects()[0]
	out := sys.HarvestPipelined(context.Background(), []EntityID{99999}, aspect,
		nil, NewP(), 1)
	// One aligned result per requested ID, carrying an explicit error —
	// dropping the slot (the old behavior) shifted every later result off
	// its entity.
	if len(out) != 1 {
		t.Fatalf("unknown entity produced %d results, want 1", len(out))
	}
	if out[0].Err == nil || out[0].Entity != nil {
		t.Errorf("unknown entity slot = %+v, want explicit error with nil Entity", out[0])
	}
}

// TestNewHarvestJobsRefusesUnknownEntities: jobs[i] must harvest
// entities[i], so an unknown ID fails the call, naming every unknown ID,
// instead of building a shorter slice that shifts each later job off its
// entity.
func TestNewHarvestJobsRefusesUnknownEntities(t *testing.T) {
	sys := testSystem(t, Cars)
	ids := sys.EntityIDs()
	jobs, err := sys.NewHarvestJobs([]EntityID{ids[0], 99998, ids[1], 99999}, sys.Aspects()[0], nil, NewP(), 1)
	if err == nil || jobs != nil {
		t.Fatalf("unknown ids built %d jobs, err %v", len(jobs), err)
	}
	for _, id := range []string{"99998", "99999"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name unknown id %s", err, id)
		}
	}
}

// TestCheckpointThroughFacade exercises the promoted Snapshot/Resume on the
// public Harvester, the checkpoint carried as JSON like the jobs API does.
func TestCheckpointThroughFacade(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain(aspect, ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	e := sys.Corpus().Entities[len(ids)-1]

	h := sys.NewHarvesterSeeded(e, aspect, dm, 1)
	mustRun(t, h, NewL2QBAL(), 2)
	cp := jsonCheckpoint(t, h.Snapshot())
	h2 := sys.NewHarvesterSeeded(e, aspect, dm, 1)
	if err := h2.Resume(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	if len(h2.Pages()) != len(h.Pages()) {
		t.Errorf("resumed pages %d, want %d", len(h2.Pages()), len(h.Pages()))
	}
}

// TestSchedulerPublicSurface drives the long-lived scheduler through the
// public API: NewScheduler + NewHarvestJobs, a fixed batch matching
// HarvestPipelined, and an adaptive-budget batch respecting the pooled
// spend.
func TestSchedulerPublicSurface(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	targets := ids[len(ids)-3:]
	dm, err := sys.LearnDomain(aspect, ids[:8])
	if err != nil {
		t.Fatal(err)
	}
	const nQueries = 2

	want := sys.HarvestPipelined(context.Background(), targets, aspect, dm, NewL2QBAL(), nQueries)

	sched := sys.NewScheduler(SchedulerConfig{})
	defer sched.Close()
	jobs, err := sys.NewHarvestJobs(targets, aspect, dm, NewL2QBAL(), nQueries)
	if err != nil || len(jobs) != len(targets) {
		t.Fatalf("built %d jobs for %d targets: %v", len(jobs), len(targets), err)
	}
	b, err := sched.Submit(context.Background(), jobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range b.Await(context.Background()) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !reflect.DeepEqual(r.Fired, want[i].Fired) {
			t.Errorf("job %d fired %v, HarvestPipelined fired %v", i, r.Fired, want[i].Fired)
		}
	}

	// Adaptive batch on the same scheduler: bounded by the pooled budget.
	jobs2, err := sys.NewHarvestJobs(targets, aspect, dm, NewL2QBAL(), nQueries)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sched.Submit(context.Background(), jobs2, BatchOptions{
		Budget: BudgetPolicy{Mode: BudgetAdaptive},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range b2.Await(context.Background()) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		total += len(r.Fired)
	}
	if total > nQueries*len(targets) {
		t.Errorf("adaptive batch fired %d > pooled budget %d", total, nQueries*len(targets))
	}

	if st := sched.Stats(); st.FinishedJobs != int64(2*len(targets)) {
		t.Errorf("FinishedJobs = %d, want %d", st.FinishedJobs, 2*len(targets))
	}
}

// TestCheckpointPublicRoundTrip: the Harvester's promoted Snapshot/Resume
// round trip through the public surface.
func TestCheckpointPublicRoundTrip(t *testing.T) {
	sys := testSystem(t, Cars)
	aspect := sys.Aspects()[0]
	e := sys.Corpus().Entities[sys.Corpus().NumEntities()-1]

	ref := sys.NewHarvester(e, aspect, nil)
	want := mustRun(t, ref, NewL2QBAL(), 3)

	h := sys.NewHarvester(e, aspect, nil)
	mustRun(t, h, NewL2QBAL(), 1)
	cp := jsonCheckpoint(t, h.Snapshot())
	resumed := sys.NewHarvester(e, aspect, nil)
	if err := resumed.Resume(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	got := append(append([]Query(nil), cp.Fired...), mustRun(t, resumed, NewL2QBAL(), 2)...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed fired %v, uninterrupted %v", got, want)
	}
}

// jsonCheckpoint carries a checkpoint through JSON, the form the jobs API
// holds it in (HarvestRequest.Resume, JobStatus.Checkpoints).
func jsonCheckpoint(t *testing.T, cp Checkpoint) Checkpoint {
	t.Helper()
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var out Checkpoint
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustRun is RunCtx over an engine that cannot fail: any error fails the
// test.
func mustRun(t testing.TB, s *Harvester, sel Selector, n int) []Query {
	t.Helper()
	fired, err := s.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}
