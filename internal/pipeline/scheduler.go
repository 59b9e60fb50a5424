package pipeline

// The long-lived scheduler. Every admitted job is one goroutine that runs
// Fig. 1's loop from top to bottom — FetchQueryCtx, then Session.Ingest →
// budget decision → Session.Select — and two gates bound how many jobs
// run each half at once: the select gate (Config.SelectWorkers slots)
// around the CPU half and the fetch gate (Config.FetchWorkers slots)
// around the download. The Go runtime runs other goroutines while one
// waits on I/O, so entity A's selection runs while entity B's download is
// in flight. Jobs are admitted strictly FIFO under Config.MaxActive; each
// gate hands a freed slot to the next batch round-robin and to that
// batch's jobs in FIFO order, so one large submission cannot starve a
// small one. Run is a thin submit-all-and-await wrapper over a private
// scheduler; the parity tests hold both to the sequential StepCtx run
// (sequentialReference).

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"l2q/internal/core"
	"l2q/internal/search"
)

// jobStage is where a job currently is in its lifecycle.
type jobStage int

const (
	stagePending jobStage = iota // submitted, awaiting admission
	stageRunning                 // admitted: its goroutine runs the loop
	stageParked                  // waiting for a budget grant (adaptive)
	stageDone
)

// jobState is the scheduler-side state of one job. Its goroutine alone
// touches the session and sets base; the rest is guarded by the
// scheduler mutex.
type jobState struct {
	job   *Job
	index int // in its batch
	stage jobStage
	base  int // len(Session.Fired()) when the job started
	// wake hands the job a gate slot, or the round barrier's verdict
	// (granted) while it is parked. The job waits for one thing at a time,
	// so one buffered signal suffices.
	wake chan struct{}

	// Budget-allocation signals, refreshed after every ingest and read by
	// the round barrier.
	lastGain float64 // marginal ΔR_E(Φ) of the last ingest
	granted  bool    // holds an unspent adaptive budget token
}

// The two gates: indexes into Scheduler.gates and Batch.waiting.
const (
	selectGate = iota
	fetchGate
)

// gate counts the free slots of one half of the loop; rr is its
// round-robin cursor over Scheduler.batches.
type gate struct{ free, rr int }

// Scheduler runs harvesting jobs, one goroutine each, behind shared select
// (CPU) and fetch (I/O) gates for its whole lifetime. Construct with New,
// submit batches with Submit, and stop with Close. Safe for concurrent
// use.
type Scheduler struct {
	cfg Config

	mu    sync.Mutex
	gates [2]gate

	// batches holds every batch with unfinished jobs, in submission
	// (admission FIFO) order. The gates hand slots out round-robin over
	// this slice (per-submitter fair share); admission walks it front to
	// back.
	batches []*Batch

	active int // admitted, unfinished jobs
	queued int // jobs awaiting admission

	finished int64 // jobs finished over the scheduler lifetime
	fired    int64 // queries fired over the scheduler lifetime

	closed bool           // refuses new batches
	wg     sync.WaitGroup // one per job goroutine
}

// Stats is a point-in-time snapshot of scheduler load, the server-side
// /api/v1/metrics payload.
type Stats struct {
	SelectWorkers int   `json:"selectWorkers"`
	FetchWorkers  int   `json:"fetchWorkers"`
	Batches       int   `json:"batches"`
	ActiveJobs    int   `json:"activeJobs"`
	QueuedJobs    int   `json:"queuedJobs"`
	ParkedJobs    int   `json:"parkedJobs"`
	FinishedJobs  int64 `json:"finishedJobs"`
	FiredQueries  int64 `json:"firedQueries"`
	// BudgetRemaining sums the unspent query budget across the active
	// adaptive-mode batches.
	BudgetRemaining int `json:"budgetRemaining"`
}

// New makes a scheduler. It starts no goroutine: each job gets its own
// when it is admitted.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg}
	s.gates[selectGate].free = cfg.SelectWorkers
	s.gates[fetchGate].free = cfg.FetchWorkers
	return s
}

// Batch is one Submit call's unit of work: its jobs, their results, and
// the batch-scoped budget pool. Await/Cancel/Done manage its lifecycle.
type Batch struct {
	s    *Scheduler
	opts BatchOptions
	pool *budgetPool

	ctx       context.Context
	cancel    context.CancelFunc
	stopWatch func() bool

	// All below guarded by s.mu.
	states     []*jobState
	results    []Result
	nextAdmit  int // states index of the next job to admit
	live       int // admitted, unfinished jobs
	unfinished int // all unfinished jobs (admitted or not)
	// waiting holds, per gate, the jobs waiting for one of its slots.
	waiting [2][]*jobState
	parked  []*jobState // jobs awaiting a budget grant

	done chan struct{}
}

// Submit enqueues a batch of jobs. Jobs are admitted FIFO relative to
// every other submission and share the scheduler's gates; ctx
// cancellation (or Cancel) aborts the batch's unfinished jobs. Sessions
// must not be shared between jobs; a session that has already fired
// queries (a checkpoint resume) is picked up where it left off, with
// Job.NQueries counting only the queries fired under this scheduler.
// Submit fails once the scheduler is closing or closed.
func (s *Scheduler) Submit(ctx context.Context, jobs []Job, opts BatchOptions) (*Batch, error) {
	bctx, cancel := context.WithCancel(ctx)
	b := &Batch{
		s:       s,
		opts:    opts,
		pool:    newBudgetPool(opts.Budget, jobs),
		ctx:     bctx,
		cancel:  cancel,
		states:  make([]*jobState, len(jobs)),
		results: make([]Result, len(jobs)),
		done:    make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("pipeline: scheduler is shut down")
	}
	for i := range jobs {
		if jobs[i].Session == nil || jobs[i].Selector == nil {
			b.results[i] = Result{Job: &jobs[i], Err: fmt.Errorf("pipeline: job %d missing session or selector", i)}
			continue
		}
		b.states[i] = &jobState{job: &jobs[i], index: i, wake: make(chan struct{}, 1)}
		b.unfinished++
		s.queued++
	}
	if b.unfinished == 0 {
		s.mu.Unlock()
		cancel()
		close(b.done)
		return b, nil
	}
	s.batches = append(s.batches, b)
	// Tie the batch to the caller's context before any job can finish
	// (finishLocked reads stopWatch under this same lock). A pre-canceled
	// ctx fires the func in its own goroutine, which then blocks on the
	// scheduler lock until the batch is fully enqueued.
	b.stopWatch = context.AfterFunc(ctx, b.Cancel)
	s.admitLocked()
	s.mu.Unlock()
	return b, nil
}

// Await blocks until the batch finishes and returns its results (one per
// job, in input order). If ctx is canceled first, the batch itself is
// canceled and Await returns once the abort completes — unfinished jobs
// carry the cancellation error, mirroring Run's contract.
func (b *Batch) Await(ctx context.Context) []Result {
	select {
	case <-b.done:
	case <-ctx.Done():
		b.Cancel()
		<-b.done
	}
	return b.results
}

// Done is closed when every job in the batch has finished.
func (b *Batch) Done() <-chan struct{} { return b.done }

// Cancel aborts the batch's unfinished jobs: jobs not yet admitted finish
// at once with the cancellation error; admitted ones — waiting for a slot
// or a grant, or fetching under the batch context — finish as soon as
// their goroutine observes the canceled context.
func (b *Batch) Cancel() {
	b.cancel()
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range b.states {
		if st != nil && st.stage == stagePending {
			b.finishLocked(st, b.ctx.Err())
		}
	}
}

// Close refuses new batches, cancels every unfinished one, and returns
// once every job goroutine has exited. It is idempotent and safe to call
// concurrently with Submit/Await.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	batches := slices.Clone(s.batches)
	s.mu.Unlock()
	for _, b := range batches {
		b.Cancel()
		<-b.done
	}
	s.wg.Wait()
}

// Stats snapshots scheduler load.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		SelectWorkers: s.cfg.SelectWorkers,
		FetchWorkers:  s.cfg.FetchWorkers,
		Batches:       len(s.batches),
		ActiveJobs:    s.active,
		QueuedJobs:    s.queued,
		FinishedJobs:  s.finished,
		FiredQueries:  s.fired,
	}
	for _, b := range s.batches {
		for _, js := range b.parked {
			if js.stage == stageParked {
				st.ParkedJobs++
			}
		}
		if b.pool.mode == BudgetAdaptive {
			st.BudgetRemaining += b.pool.remaining
		}
	}
	return st
}

// admitLocked admits pending jobs strictly FIFO (batch submission order,
// job order within a batch) while Config.MaxActive allows, starting each
// one's goroutine.
func (s *Scheduler) admitLocked() {
	for _, b := range s.batches {
		for b.nextAdmit < len(b.states) {
			if s.cfg.MaxActive > 0 && s.active >= s.cfg.MaxActive {
				return
			}
			st := b.states[b.nextAdmit]
			b.nextAdmit++
			if st == nil || st.stage != stagePending {
				continue
			}
			s.queued--
			s.active++
			b.live++
			st.stage = stageRunning
			s.wg.Add(1)
			go b.run(st)
		}
	}
}

// run is one admitted job's goroutine.
func (b *Batch) run(st *jobState) {
	defer b.s.wg.Done()
	err := b.harvest(st)
	b.s.mu.Lock()
	b.finishLocked(st, err)
	b.s.mu.Unlock()
}

// harvest runs one job's loop until it is done (nil) or cut short (the
// error): FetchQueryCtx under a fetch slot — the seed first, unless a
// resumed session has already booted — then Ingest (recording the gain
// in R_E(Φ) for the budget pool and calling the checkpoint hook, from
// this goroutine, so one job's calls are serialized), budget decision and
// Select under a select slot. The fetch is context-aware: batch
// cancellation aborts an in-flight remote download immediately, and a
// transport failure that survived the retriever's retry budget ends the
// job with a typed error rather than ingesting an empty result set as if
// the query had been unproductive.
func (b *Batch) harvest(st *jobState) error {
	s := b.s
	sess := st.job.Session
	st.base = len(sess.Fired())
	var q core.Query // "" fetches the seed
	fetch := !sess.Booted()
	for {
		var res []search.Result
		if fetch {
			if err := b.acquire(st, fetchGate); err != nil {
				return err
			}
			var err error
			res, err = sess.FetchQueryCtx(b.ctx, q)
			s.release(fetchGate)
			if err != nil {
				return err
			}
		}
		if err := b.acquire(st, selectGate); err != nil {
			return err
		}
		if fetch {
			before := sess.RPhi()
			sess.Ingest(q, res)
			s.mu.Lock()
			st.lastGain = sess.RPhi() - before
			if q != "" {
				s.fired++
			}
			s.mu.Unlock()
			if b.opts.Checkpoint != nil {
				b.opts.Checkpoint(st.index, sess.Snapshot())
			}
		}
		s.mu.Lock()
		err := b.ctx.Err()
		d := b.decideLocked(st)
		s.mu.Unlock()
		if err != nil || d == decideFinish {
			s.release(selectGate)
			return err
		}
		if d == decidePark {
			s.release(selectGate)
			if granted, err := b.park(st); err != nil || !granted {
				return err
			}
			if err := b.acquire(st, selectGate); err != nil {
				return err
			}
		}
		next, found := sess.Select(st.job.Selector)
		s.release(selectGate)

		s.mu.Lock()
		err = b.ctx.Err()
		if err == nil && !found && st.granted {
			// The token was never spent on a search: it flows back to
			// the pool for the next round.
			b.pool.remaining++
		}
		st.granted = false
		s.mu.Unlock()
		if err != nil || !found {
			return err
		}
		q, fetch = next, true
	}
}

// acquire takes a slot of gate g for st, waiting in st's batch's queue
// for one to be handed over. Once the batch's context is done it fails
// and holds nothing.
func (b *Batch) acquire(st *jobState, g int) error {
	s := b.s
	s.mu.Lock()
	if err := b.ctx.Err(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.gates[g].free > 0 {
		s.gates[g].free--
		s.mu.Unlock()
		return nil
	}
	b.waiting[g] = append(b.waiting[g], st)
	s.mu.Unlock()
	select {
	case <-st.wake:
		return nil
	case <-b.ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := slices.Index(b.waiting[g], st); k >= 0 {
		b.waiting[g] = slices.Delete(b.waiting[g], k, k+1)
	} else {
		s.releaseLocked(g) // handed a slot as the context fired: pass it on
	}
	return b.ctx.Err()
}

func (s *Scheduler) release(g int) {
	s.mu.Lock()
	s.releaseLocked(g)
	s.mu.Unlock()
}

// releaseLocked hands a freed slot of gate g to the next batch, in
// round-robin order, that has a job waiting for one, and there to the job
// that has waited longest. With nobody waiting the slot goes free.
func (s *Scheduler) releaseLocked(g int) {
	gt := &s.gates[g]
	for k := 1; k <= len(s.batches); k++ {
		i := (gt.rr + k) % len(s.batches)
		b := s.batches[i]
		if len(b.waiting[g]) > 0 {
			st := b.waiting[g][0]
			b.waiting[g] = b.waiting[g][1:]
			gt.rr = i
			st.wake <- struct{}{}
			return
		}
	}
	gt.free++
}

// finishLocked records one job's result and unwinds the batch/scheduler
// accounting: admission of the next pending job, the budget round barrier
// (a finishing job may have been the last non-parked one), and batch
// completion.
func (b *Batch) finishLocked(st *jobState, err error) {
	wasPending := st.stage == stagePending
	st.stage = stageDone
	var fired []core.Query
	if !wasPending {
		fired = slices.Clip(st.job.Session.Fired()[st.base:])
	}
	b.results[st.index] = Result{Job: st.job, Fired: fired, Err: err}
	b.unfinished--
	if wasPending {
		b.s.queued--
	} else {
		b.live--
		b.s.active--
		b.s.finished++
	}
	b.s.admitLocked()
	b.maybeReleaseLocked()
	if b.unfinished == 0 {
		b.s.removeBatchLocked(b)
		b.cancel()
		if b.stopWatch != nil {
			b.stopWatch()
		}
		close(b.done)
	}
}

// removeBatchLocked drops a fully finished batch from the admission list.
func (s *Scheduler) removeBatchLocked(b *Batch) {
	if k := slices.Index(s.batches, b); k >= 0 {
		s.batches = slices.Delete(s.batches, k, k+1)
	}
}

// Run executes all jobs to completion (or ctx cancellation) and returns
// one Result per job, in input order. Sessions must be freshly created
// and must not be shared between jobs. It is the one-shot wrapper over a
// private Scheduler: submit everything, await, close.
func Run(ctx context.Context, cfg Config, jobs []Job) []Result {
	s := New(cfg)
	defer s.Close()
	b, err := s.Submit(ctx, jobs, BatchOptions{})
	if err != nil {
		// Unreachable on a fresh scheduler; keep the results contract.
		results := make([]Result, len(jobs))
		for i := range jobs {
			results[i] = Result{Job: &jobs[i], Err: err}
		}
		return results
	}
	return b.Await(ctx)
}
