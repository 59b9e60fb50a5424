package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// outcome is one session's observable result: the fired sequence and the
// gathered page IDs.
type outcome struct {
	fired []core.Query
	pages []corpus.PageID
}

func sessionOutcome(fired []core.Query, s *core.Session) outcome {
	o := outcome{fired: fired}
	for _, p := range s.Pages() {
		o.pages = append(o.pages, p.ID)
	}
	return o
}

// sequentialReference runs each target session to completion one at a
// time — the ground truth every scheduler configuration must reproduce.
func sequentialReference(t testing.TB, f *fixture, targets []*corpus.Entity, nQueries int) []outcome {
	want := make([]outcome, len(targets))
	for i, e := range targets {
		s := f.session(e, 0)
		fired := mustRun(t, s, core.NewL2QBAL(), nQueries)
		want[i] = sessionOutcome(fired, s)
	}
	return want
}

// TestSchedulerMatchesRun is the tentpole's differential-parity core: many
// batches submitted concurrently to ONE long-lived scheduler must each
// fire identical per-entity query sequences and gather identical page
// sets as the sequential reference (and therefore as the one-shot Run,
// which the existing TestPipelineMatchesSequential pins to the same
// reference).
func TestSchedulerMatchesRun(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(6)
	const nQueries = 3
	want := sequentialReference(t, f, targets, nQueries)

	s := New(Config{SelectWorkers: 3, FetchWorkers: 8})
	defer s.Close()

	const submitters = 3
	got := make([][]outcome, submitters)
	var wg sync.WaitGroup
	for sub := 0; sub < submitters; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			jobs := make([]Job, len(targets))
			sessions := make([]*core.Session, len(targets))
			for i, e := range targets {
				sessions[i] = f.session(e, 0)
				jobs[i] = Job{Session: sessions[i], Selector: core.NewL2QBAL(), NQueries: nQueries}
			}
			b, err := s.Submit(context.Background(), jobs, BatchOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			results := b.Await(context.Background())
			out := make([]outcome, len(targets))
			for i := range targets {
				if results[i].Err != nil {
					t.Errorf("submitter %d job %d: %v", sub, i, results[i].Err)
				}
				out[i] = sessionOutcome(results[i].Fired, sessions[i])
			}
			got[sub] = out
		}(sub)
	}
	wg.Wait()

	for sub := range got {
		for i := range targets {
			if !reflect.DeepEqual(got[sub][i].fired, want[i].fired) {
				t.Errorf("submitter %d entity %d fired %v, want %v", sub, i, got[sub][i].fired, want[i].fired)
			}
			if !reflect.DeepEqual(got[sub][i].pages, want[i].pages) {
				t.Errorf("submitter %d entity %d pages differ", sub, i)
			}
		}
	}

	st := s.Stats()
	if st.FinishedJobs != int64(submitters*len(targets)) {
		t.Errorf("FinishedJobs = %d, want %d", st.FinishedJobs, submitters*len(targets))
	}
	if st.FiredQueries != int64(submitters*len(targets)*nQueries) {
		t.Errorf("FiredQueries = %d, want %d", st.FiredQueries, submitters*len(targets)*nQueries)
	}
	if st.ActiveJobs != 0 || st.QueuedJobs != 0 || st.Batches != 0 {
		t.Errorf("scheduler not quiescent after completion: %+v", st)
	}
}

// TestSchedulerTimesSelection: a job's selections go through
// Session.Select, so a scheduled L2QBAL session accounts its selection
// time like a StepCtx one, and every trace record carries the time of the
// selection that chose its query.
func TestSchedulerTimesSelection(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	const nQueries = 2
	jobs := make([]Job, len(targets))
	records := make([][]core.TraceRecord, len(targets))
	for i, e := range targets {
		sess := f.session(e, 0)
		sess.Trace = func(tr core.TraceRecord) { records[i] = append(records[i], tr) }
		jobs[i] = Job{Session: sess, Selector: core.NewL2QBAL(), NQueries: nQueries}
	}
	s := New(Config{SelectWorkers: 2, FetchWorkers: 4})
	defer s.Close()
	b, err := s.Submit(context.Background(), jobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range b.Await(context.Background()) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if d := r.Job.Session.SelectionTime(); d <= 0 {
			t.Errorf("job %d: SelectionTime %v, want > 0", i, d)
		}
		if len(records[i]) != nQueries {
			t.Fatalf("job %d: %d trace records, want %d", i, len(records[i]), nQueries)
		}
		for _, tr := range records[i] {
			if tr.SelectionTime <= 0 {
				t.Errorf("job %d step %d (%q): SelectionTime %v, want > 0", i, tr.Iteration, tr.Query, tr.SelectionTime)
			}
		}
	}
}

// TestSchedulerAdmissionFIFO: with MaxActive=1, jobs run strictly one at
// a time in submission order, across batches.
func TestSchedulerAdmissionFIFO(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)

	s := New(Config{SelectWorkers: 2, FetchWorkers: 4, MaxActive: 1})
	defer s.Close()

	var mu sync.Mutex
	var order []corpus.EntityID

	batches := make([]*Batch, len(targets))
	for i, e := range targets {
		sess := f.session(e, 0)
		id := e.ID
		sess.Trace = func(core.TraceRecord) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
		b, err := s.Submit(context.Background(), []Job{{Session: sess, Selector: core.NewP(), NQueries: 2}}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = b
	}
	for _, b := range batches {
		for _, r := range b.Await(context.Background()) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}

	// With one admission slot, each entity's trace records must form a
	// contiguous block in submission order.
	mu.Lock()
	defer mu.Unlock()
	var wantOrder []corpus.EntityID
	for _, e := range targets {
		wantOrder = append(wantOrder, e.ID, e.ID)
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("admission order %v, want FIFO %v", order, wantOrder)
	}
}

// TestSchedulerFairShare: a small batch submitted after a large
// slow-fetching batch must not wait for the whole backlog — round-robin
// across batches gives it its share of the pools immediately.
func TestSchedulerFairShare(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(9)

	s := New(Config{SelectWorkers: 2, FetchWorkers: 2})
	defer s.Close()

	slowJobs := make([]Job, 8)
	for i, e := range targets[:8] {
		slowJobs[i] = Job{Session: f.session(e, 150*time.Millisecond), Selector: core.NewRT(), NQueries: 3}
	}
	slow, err := s.Submit(context.Background(), slowJobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fast, err := s.Submit(context.Background(), []Job{
		{Session: f.session(targets[8], 0), Selector: core.NewRT(), NQueries: 2},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	fastRes := fast.Await(context.Background())
	fastTime := time.Since(start)
	slowRes := slow.Await(context.Background())
	slowTime := time.Since(start)

	for _, r := range append(fastRes, slowRes...) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// The fast batch (instant fetches) must finish well before the slow
	// backlog drains; without fair share it would queue behind 8×3 slow
	// fetch rounds.
	if fastTime > slowTime/2 {
		t.Errorf("fast batch took %v of the slow batch's %v: no fair share", fastTime, slowTime)
	}
}

// TestSchedulerCancelLatency mirrors TestPipelineCancellationLatency for
// Batch.Cancel: canceling one batch aborts its in-flight 20 s fetches
// within milliseconds, and an independent batch on the same scheduler is
// untouched.
func TestSchedulerCancelLatency(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(5)

	s := New(Config{SelectWorkers: 2, FetchWorkers: 8})
	defer s.Close()

	entered := make(chan struct{}, 1)
	slowJobs := make([]Job, 4)
	for i, e := range targets[:4] {
		sess := f.session(e, 0)
		sess.Engine = slowRetriever{Retriever: f.engine, delay: 20 * time.Second, entered: entered}
		slowJobs[i] = Job{Session: sess, Selector: core.NewRT(), NQueries: 5}
	}
	doomed, err := s.Submit(context.Background(), slowJobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := s.Submit(context.Background(), []Job{
		{Session: f.session(targets[4], 0), Selector: core.NewRT(), NQueries: 2},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	<-entered // a 20 s fetch is in flight
	start := time.Now()
	doomed.Cancel()
	results := doomed.Await(context.Background())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Cancel took %v, want ~ms", elapsed)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("job %d finished despite 20s fetches", i)
		}
	}
	for _, r := range healthy.Await(context.Background()) {
		if r.Err != nil {
			t.Errorf("independent batch caught the cancellation: %v", r.Err)
		}
	}
}

// TestSchedulerResumedSession: a batch killed mid-harvest and resumed
// from its checkpoints finishes with the same fired-query sequence as an
// uninterrupted run — the tentpole's checkpoint/resume acceptance
// criterion, driven through the scheduler's pre-booted admission path.
func TestSchedulerResumedSession(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	const nQueries = 4
	want := sequentialReference(t, f, targets, nQueries)

	s := New(Config{SelectWorkers: 2, FetchWorkers: 4})
	defer s.Close()

	// Phase 1: harvest with per-ingest checkpointing, cancel mid-run: once
	// a query past the seed has landed somewhere.
	var cpMu sync.Mutex
	latest := make(map[int]core.Checkpoint)
	landed := make(chan struct{})
	var once sync.Once
	jobs := make([]Job, len(targets))
	for i, e := range targets {
		jobs[i] = Job{Session: f.session(e, 50*time.Millisecond), Selector: core.NewL2QBAL(), NQueries: nQueries}
	}
	b, err := s.Submit(context.Background(), jobs, BatchOptions{
		Checkpoint: func(job int, cp core.Checkpoint) {
			cpMu.Lock()
			latest[job] = cp
			cpMu.Unlock()
			if len(cp.Fired) > 0 {
				once.Do(func() { close(landed) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-landed:
	case <-b.Done():
		t.Fatal("the batch finished without a checkpoint past the seed")
	}
	b.Cancel()
	b.Await(context.Background())

	// Phase 2: fresh sessions resumed from the kill-point checkpoints,
	// submitted with the remaining budget.
	jobs2 := make([]Job, len(targets))
	sessions2 := make([]*core.Session, len(targets))
	prior := make([][]core.Query, len(targets))
	for i, e := range targets {
		sessions2[i] = f.session(e, 0)
		remaining := nQueries
		if cp, ok := latest[i]; ok {
			if err := sessions2[i].Resume(context.Background(), cp); err != nil {
				t.Fatalf("resume job %d: %v", i, err)
			}
			prior[i] = cp.Fired
			remaining -= len(cp.Fired)
		}
		jobs2[i] = Job{Session: sessions2[i], Selector: core.NewL2QBAL(), NQueries: remaining}
	}
	b2, err := s.Submit(context.Background(), jobs2, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results := b2.Await(context.Background())

	for i := range targets {
		if results[i].Err != nil {
			t.Fatalf("resumed job %d: %v", i, results[i].Err)
		}
		full := append(append([]core.Query(nil), prior[i]...), results[i].Fired...)
		if !reflect.DeepEqual(full, want[i].fired) {
			t.Errorf("entity %d: interrupted+resumed fired %v, uninterrupted %v", i, full, want[i].fired)
		}
		got := sessionOutcome(nil, sessions2[i])
		if !reflect.DeepEqual(got.pages, want[i].pages) {
			t.Errorf("entity %d: resumed pages differ from uninterrupted", i)
		}
	}
}

// TestSchedulerCloseAborts: Close cancels in-flight batches and makes
// Await return promptly with errors, and a closed scheduler refuses new
// batches.
func TestSchedulerCloseAborts(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(3)

	s := New(Config{SelectWorkers: 2, FetchWorkers: 4})
	entered := make(chan struct{}, 1)
	jobs := make([]Job, len(targets))
	for i, e := range targets {
		sess := f.session(e, 0)
		sess.Engine = slowRetriever{Retriever: f.engine, delay: 20 * time.Second, entered: entered}
		jobs[i] = Job{Session: sess, Selector: core.NewRT(), NQueries: 5}
	}
	b, err := s.Submit(context.Background(), jobs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // a 20 s fetch is in flight
	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v", elapsed)
	}
	canceled := 0
	for _, r := range b.Await(context.Background()) {
		if r.Err != nil {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("Close finished no jobs with errors despite 20s fetches in flight")
	}
	if _, err := s.Submit(context.Background(), jobs, BatchOptions{}); err == nil {
		t.Error("Submit accepted after Close")
	}
}

// TestSchedulerSharedEnumerationRace drives concurrent scheduler batches
// over the same entities WHILE the domain phase re-learns over the same
// corpus: every one of those consumers enumerates the same immutable
// pages — the sessions through the per-page term-id memo, one shared
// vocabulary and one facts table (corpus.Page.TermIDs), the domain phase
// through a scan of each page's tokens (corpus.Page.ScanParaTokens) — so
// this is the -race exercise for the shared-enumeration layer. Parity with
// the sequential reference must survive the contention.
func TestSchedulerSharedEnumerationRace(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	const nQueries = 2
	want := sequentialReference(t, f, targets, nQueries)

	s := New(Config{SelectWorkers: 3, FetchWorkers: 6})
	defer s.Close()

	var domainIDs []corpus.EntityID
	for i := 0; i < f.g.Corpus.NumEntities()/2; i++ {
		domainIDs = append(domainIDs, f.g.Corpus.Entities[i].ID)
	}

	stop := make(chan struct{})
	learnErr := make(chan error, 1)
	go func() {
		defer close(learnErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Same pages, read while the harvesting sessions memoize
			// their term ids on them concurrently.
			if _, err := core.LearnDomainScored(f.cfg, synth.AspResearch,
				f.g.Corpus, domainIDs, f.y, nil, f.rec); err != nil {
				learnErr <- err
				return
			}
		}
	}()

	const submitters = 3
	var wg sync.WaitGroup
	for sub := 0; sub < submitters; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			jobs := make([]Job, len(targets))
			sessions := make([]*core.Session, len(targets))
			for i, e := range targets {
				sessions[i] = f.session(e, 0)
				jobs[i] = Job{Session: sessions[i], Selector: core.NewL2QBAL(), NQueries: nQueries}
			}
			b, err := s.Submit(context.Background(), jobs, BatchOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			results := b.Await(context.Background())
			for i := range targets {
				if results[i].Err != nil {
					t.Errorf("submitter %d job %d: %v", sub, i, results[i].Err)
					continue
				}
				got := sessionOutcome(results[i].Fired, sessions[i])
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("submitter %d entity %d diverged under shared enumeration", sub, targets[i].ID)
				}
			}
		}(sub)
	}
	wg.Wait()
	close(stop)
	if err := <-learnErr; err != nil {
		t.Fatalf("concurrent domain learning failed: %v", err)
	}
}

// blockingSelector signals entered, without blocking, as each selection
// begins, then waits for release before delegating: a selection in
// flight for as long as a test needs one.
type blockingSelector struct {
	core.Selector
	entered chan<- struct{}
	release <-chan struct{}
}

func (s blockingSelector) Select(sess *core.Session) (core.Selection, bool) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return s.Selector.Select(sess)
}

// TestSchedulerLeavesNothingRunning pins the job goroutines' lifetime: New
// starts none, and after Close returns the goroutine count falls back to
// where it was before New — though Close ran with a job in each state:
// queued behind MaxActive, fetching (a 20 s slowRetriever), selecting (a
// selector held until Close has begun), and parked in an adaptive round.
func TestSchedulerLeavesNothingRunning(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	baseline := runtime.NumGoroutine()

	s := New(Config{SelectWorkers: 2, FetchWorkers: 2, MaxActive: 3})
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("New started %d goroutines before any job", n-baseline)
	}

	// Adaptive batch: job 0 boots and parks for a grant while job 1 is
	// still fetching its seed through a 20 s retriever.
	fetching := make(chan struct{}, 1)
	slow := f.session(targets[1], 0)
	slow.Engine = slowRetriever{Retriever: f.engine, delay: 20 * time.Second, entered: fetching}
	if _, err := s.Submit(context.Background(), []Job{
		{Session: f.session(targets[0], 0), Selector: core.NewRT(), NQueries: 3},
		{Session: slow, Selector: core.NewRT(), NQueries: 3},
	}, BatchOptions{Budget: BudgetPolicy{Mode: BudgetAdaptive}}); err != nil {
		t.Fatal(err)
	}
	selecting, release := make(chan struct{}, 1), make(chan struct{})
	if _, err := s.Submit(context.Background(), []Job{
		{Session: f.session(targets[2], 0), Selector: blockingSelector{Selector: core.NewRT(), entered: selecting, release: release}, NQueries: 3},
	}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// MaxActive is spent on the three above: this one stays queued.
	if _, err := s.Submit(context.Background(), []Job{
		{Session: f.session(targets[3], 0), Selector: core.NewRT(), NQueries: 3},
	}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	<-fetching
	<-selecting
	deadline := time.Now().Add(10 * time.Second)
	for st := s.Stats(); st.ParkedJobs != 1 || st.QueuedJobs != 1; st = s.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("want one parked and one queued job before Close, have %+v", st)
		}
		runtime.Gosched()
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	deadline = time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after Close (baseline %d)", n, baseline)
		}
		runtime.Gosched()
	}
}
