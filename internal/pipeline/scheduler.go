package pipeline

// The long-lived scheduler. pipeline.Run used to build fresh worker pools
// per invocation, which was fine for a one-batch CLI run but wrong for a
// server: every harvest request got its own GOMAXPROCS-sized select
// pool with no admission control, and nothing could be shared, queued,
// fairly interleaved, checkpointed, or drained. Scheduler inverts that:
// New(cfg) owns the select/fetch pools for its lifetime; any number of
// concurrent callers Submit job batches; jobs are admitted FIFO
// (Config.MaxActive is the admission bound) and, once admitted, served
// round-robin across batches so one large submission cannot starve a
// small one; Close shuts it down. Run survives as a thin
// submit-all-and-await wrapper over a private scheduler — the retained
// reference the parity tests hold the scheduler to.

import (
	"context"
	"fmt"
	"sync"

	"l2q/internal/core"
	"l2q/internal/search"
)

// jobStage is where a job currently is in its lifecycle.
type jobStage int

const (
	stagePending      jobStage = iota // submitted, awaiting admission
	stageFetchQueued                  // ready for a fetch worker
	stageFetching                     // owned by a fetch worker
	stageSelectQueued                 // ready for a select worker
	stageSelecting                    // owned by a select worker
	stageParked                       // waiting for a budget grant (adaptive)
	stageDone
)

// jobState is the scheduler-side state of one job. A job is owned by at
// most one worker at a time; every field is otherwise guarded by the
// scheduler mutex.
type jobState struct {
	job   *Job
	stage jobStage
	fired []core.Query
	// pending is the query whose results the fetch stage is producing;
	// empty string while bootstrapping (the seed fetch).
	pending core.Query
	booted  bool
	// needsIngest marks results awaiting ingestion; a budget grant
	// re-queues a job to the select stage with needsIngest=false (it
	// already ingested before parking).
	needsIngest bool
	results     []search.Result

	// Budget-allocation signals (maintained by the owning select worker
	// at ingest time, read under the scheduler mutex at grant time).
	lastRPhi  float64 // R_E(Φ) after the last ingest
	lastGain  float64 // marginal ΔR_E(Φ) of the last fired query
	lowStreak int     // consecutive queries with ΔR_E(Φ) < MinGain
	granted   bool    // holds an unspent adaptive budget token
}

// Scheduler runs harvesting jobs on shared select (CPU) and fetch (I/O)
// worker pools for its whole lifetime. Construct with New, submit batches
// with Submit, and stop with Close. Safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	selCond *sync.Cond
	ftCond  *sync.Cond

	// batches holds every batch with unfinished jobs, in submission
	// (admission FIFO) order. Worker pick is round-robin over this slice
	// (per-submitter fair share); admission walks it front to back.
	batches []*Batch
	rrSel   int
	rrFt    int

	active int // admitted, unfinished jobs
	queued int // jobs awaiting admission

	finished int64 // jobs finished over the scheduler lifetime
	fired    int64 // queries fired over the scheduler lifetime

	// closing refuses new batches while Close cancels the ones in flight.
	closing bool
	closed  bool
	wg      sync.WaitGroup
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

// New starts a scheduler: its worker pools spin up immediately and live
// until Close.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg}
	s.selCond = sync.NewCond(&s.mu)
	s.ftCond = sync.NewCond(&s.mu)
	for w := 0; w < cfg.FetchWorkers; w++ {
		s.wg.Add(1)
		go s.fetchWorker()
	}
	for w := 0; w < cfg.SelectWorkers; w++ {
		s.wg.Add(1)
		go s.selectWorker()
	}
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
	nextAdmit  int   // states index of the next job to admit
	live       int   // admitted, unfinished jobs
	unfinished int   // all unfinished jobs (admitted or not)
	fetchQ     []int // job indices ready for fetch
	selectQ    []int // job indices ready for select/ingest
	parked     []int // job indices awaiting a budget grant

	done chan struct{}
}

// Submit enqueues a batch of jobs. Jobs are admitted FIFO relative to
// every other submission and run on the scheduler's shared pools; ctx
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
	if s.closed || s.closing {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("pipeline: scheduler is shut down")
	}
	for i := range jobs {
		if jobs[i].Session == nil || jobs[i].Selector == nil {
			b.results[i] = Result{Job: &jobs[i], Err: fmt.Errorf("pipeline: job %d missing session or selector", i)}
			continue
		}
		b.states[i] = &jobState{job: &jobs[i], stage: stagePending}
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

// Results returns the batch results; valid once Done is closed.
func (b *Batch) Results() []Result { return b.results }

// Cancel aborts the batch's unfinished jobs: queued and parked jobs
// finish immediately with the cancellation error, in-flight fetches are
// aborted through the job context, and jobs owned by a worker finish as
// soon as the worker observes the canceled context.
func (b *Batch) Cancel() {
	b.cancel()
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	err := b.ctx.Err()
	for i, st := range b.states {
		if st == nil || st.stage == stageDone {
			continue
		}
		switch st.stage {
		case stageFetching, stageSelecting:
			// Owned by a worker; it observes b.ctx and finishes the job.
		default:
			b.finishLocked(i, err)
		}
	}
}

// Close cancels every unfinished batch and stops the worker pools. It is
// idempotent and safe to call concurrently with Submit/Await.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closing = true
	batches := append([]*Batch(nil), s.batches...)
	s.mu.Unlock()
	for _, b := range batches {
		b.Cancel()
		<-b.done
	}
	s.mu.Lock()
	s.closed = true
	s.selCond.Broadcast()
	s.ftCond.Broadcast()
	s.mu.Unlock()
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
		for _, i := range b.parked {
			if b.states[i].stage == stageParked {
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
// job order within a batch) while Config.MaxActive allows. A pre-booted
// session (checkpoint resume) skips the seed fetch and enters at the
// select stage.
func (s *Scheduler) admitLocked() {
	for _, b := range s.batches {
		for b.nextAdmit < len(b.states) {
			if s.cfg.MaxActive > 0 && s.active >= s.cfg.MaxActive {
				return
			}
			i := b.nextAdmit
			b.nextAdmit++
			st := b.states[i]
			if st == nil || st.stage != stagePending {
				continue
			}
			s.queued--
			s.active++
			b.live++
			if st.job.Session.Booted() {
				st.booted = true
				st.lastRPhi = st.job.Session.RPhi()
				st.stage = stageSelectQueued
				b.selectQ = append(b.selectQ, i)
				s.selCond.Signal()
			} else {
				st.stage = stageFetchQueued
				b.fetchQ = append(b.fetchQ, i)
				s.ftCond.Signal()
			}
		}
	}
}

// nextLocked pops the next ready job for one stage, round-robin across
// batches (fair share between submitters). Entries whose job has moved on
// (canceled mid-queue) are discarded.
func (s *Scheduler) nextLocked(queue func(*Batch) *[]int, rr *int, want jobStage) (*Batch, int, bool) {
	n := len(s.batches)
	for k := 1; k <= n; k++ {
		b := s.batches[(*rr+k)%n]
		q := queue(b)
		for len(*q) > 0 {
			i := (*q)[0]
			*q = (*q)[1:]
			if b.states[i].stage == want {
				*rr = (*rr + k) % n
				return b, i, true
			}
		}
	}
	return nil, 0, false
}

func fetchQueue(b *Batch) *[]int  { return &b.fetchQ }
func selectQueue(b *Batch) *[]int { return &b.selectQ }

// fetchWorker runs the I/O half: fetch the pending query's results (the
// seed fetch for fresh jobs), then hand the job to the select stage. The
// fetch is context-aware: batch cancellation aborts an in-flight remote
// download immediately, and a transport failure that survived the
// retriever's retry budget finishes the job with a typed error rather
// than ingesting an empty result set as if the query had been
// unproductive.
func (s *Scheduler) fetchWorker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		b, i, ok := s.nextLocked(fetchQueue, &s.rrFt, stageFetchQueued)
		if !ok {
			s.ftCond.Wait()
			continue
		}
		st := b.states[i]
		if err := b.ctx.Err(); err != nil {
			b.finishLocked(i, err)
			continue
		}
		st.stage = stageFetching
		s.mu.Unlock()

		res, err := st.job.Session.FetchQueryCtx(b.ctx, st.pending)

		s.mu.Lock()
		if err != nil {
			b.finishLocked(i, err)
			continue
		}
		st.results = res
		st.needsIngest = true
		st.stage = stageSelectQueued
		b.selectQ = append(b.selectQ, i)
		s.selCond.Signal()
	}
}

// selectWorker runs the CPU half: ingest fetched results into the session
// (updating R_E(Φ) and delivering Trace records), consult the budget
// pool, and either select the next query (handing the job back to fetch),
// park for a budget grant, or finish the job.
func (s *Scheduler) selectWorker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		b, i, ok := s.nextLocked(selectQueue, &s.rrSel, stageSelectQueued)
		if !ok {
			s.selCond.Wait()
			continue
		}
		st := b.states[i]
		if err := b.ctx.Err(); err != nil {
			b.finishLocked(i, err)
			continue
		}
		st.stage = stageSelecting
		s.mu.Unlock()

		sess := st.job.Session
		firedNow := false
		if st.needsIngest {
			if !st.booted {
				st.booted = true
				sess.IngestSeed(st.results)
			} else {
				sess.IngestQuery(st.pending, st.results)
				st.fired = append(st.fired, st.pending)
				firedNow = true
			}
			st.results = nil
			st.needsIngest = false
			r := sess.RPhi()
			st.lastGain = r - st.lastRPhi
			st.lastRPhi = r
			if firedNow {
				if st.lastGain < b.pool.minGain {
					st.lowStreak++
				} else {
					st.lowStreak = 0
				}
			}
			if b.opts.Checkpoint != nil {
				b.opts.Checkpoint(i, sess.Snapshot())
			}
		}

		s.mu.Lock()
		if firedNow {
			s.fired++
		}
		if err := b.ctx.Err(); err != nil {
			b.finishLocked(i, err)
			continue
		}
		switch b.decideLocked(i) {
		case decideFinish:
			b.finishLocked(i, nil)
			continue
		case decidePark:
			st.stage = stageParked
			b.parked = append(b.parked, i)
			b.maybeReleaseLocked()
			continue
		case decideGrant:
		}
		s.mu.Unlock()

		choice, found := st.job.Selector.Select(sess)

		s.mu.Lock()
		if err := b.ctx.Err(); err != nil {
			b.finishLocked(i, err)
			continue
		}
		if !found {
			// Out of candidates: the granted token was never spent on a
			// search, so it flows back to the pool for redistribution.
			b.refundLocked(i)
			b.finishLocked(i, nil)
			continue
		}
		st.granted = false
		st.pending = choice.Query
		st.stage = stageFetchQueued
		b.fetchQ = append(b.fetchQ, i)
		s.ftCond.Signal()
	}
}

// finishLocked records one job's result and unwinds the batch/scheduler
// accounting: admission of the next pending job, the budget round barrier
// (a finishing job may have been the last non-parked one), and batch
// completion.
func (b *Batch) finishLocked(i int, err error) {
	st := b.states[i]
	if st == nil || st.stage == stageDone {
		return
	}
	wasPending := st.stage == stagePending
	st.stage = stageDone
	b.results[i] = Result{Job: st.job, Fired: st.fired, Err: err}
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
	for k, other := range s.batches {
		if other == b {
			s.batches = append(s.batches[:k], s.batches[k+1:]...)
			return
		}
	}
}

// Run executes all jobs to completion (or ctx cancellation) and returns
// one Result per job, in input order. Sessions must be freshly created
// and must not be shared between jobs. It is the one-shot wrapper over a
// private Scheduler: submit everything, await, close — and the reference
// the fixed-budget parity tests compare the long-lived scheduler against.
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
