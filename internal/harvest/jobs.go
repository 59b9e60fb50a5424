package harvest

// The jobs a server keeps: each submitted Plan runs as a Job on the
// registry's one shared scheduler under the registry's lifetime (not the
// submitting request's). Events accumulate in a per-job log that any
// number of readers can follow from the beginning, and the latest
// per-entity checkpoints are kept so a canceled (or crashed-client) harvest
// can be resumed by re-submitting with Request.Resume.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
)

// Job states reported by JobStatus.State.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobCanceled = "canceled"
)

// JobStatus is the GET /api/v1/jobs/{id} payload.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Entities is the number requested; Finished and Failed count
	// per-entity outcomes so far.
	Entities int `json:"entities"`
	Finished int `json:"finished"`
	Failed   int `json:"failed"`
	// Events is the event-log length (the ?stream=1 replay size).
	Events int `json:"events"`
	// Checkpoints (with ?checkpoints=1) is the latest durable state per
	// entity — the Resume payload for a follow-up submission.
	Checkpoints []core.Checkpoint `json:"checkpoints,omitempty"`
}

// Job is one submitted harvest's record: an append-only event log with a
// broadcast channel for followers, per-entity checkpoints, and outcome
// counters.
type Job struct {
	id     string
	seq    int // registry eviction order (submission sequence)
	cancel context.CancelFunc

	// done is closed once the job has reached its final state.
	done chan struct{}

	mu       sync.Mutex
	changed  chan struct{}
	events   []Event
	state    string
	entities int
	finished int
	failed   int
	cps      map[corpus.EntityID]core.Checkpoint
}

// ID is the job's registry key.
func (j *Job) ID() string { return j.id }

// signalLocked wakes every waiter (stream followers, state pollers).
func (j *Job) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.signalLocked()
	j.mu.Unlock()
}

// State is the job's current state (JobQueued … JobCanceled).
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// emit appends one event to the log, folding per-entity outcomes into the
// counters.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	switch ev.Type {
	case "entity":
		j.finished++
	case "error":
		j.failed++
	}
	j.signalLocked()
	j.mu.Unlock()
}

// checkpoint records the latest durable state for one entity.
func (j *Job) checkpoint(cp core.Checkpoint) {
	j.mu.Lock()
	j.cps[cp.Entity] = cp
	j.mu.Unlock()
}

func (j *Job) finalLocked() bool {
	return j.state == JobDone || j.state == JobCanceled
}

// Status snapshots the job; withCheckpoints adds the latest checkpoint of
// every entity, in ascending entity ID.
func (j *Job) Status(withCheckpoints bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Entities: j.entities,
		Finished: j.finished,
		Failed:   j.failed,
		Events:   len(j.events),
	}
	if withCheckpoints {
		ids := make([]corpus.EntityID, 0, len(j.cps))
		for id := range j.cps {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			st.Checkpoints = append(st.Checkpoints, j.cps[id])
		}
	}
	return st
}

// Events returns the events from index from on, blocking until new ones
// arrive, the job reaches a final state, or ctx is done. final reports
// whether no further events will ever arrive past the returned slice.
func (j *Job) Events(ctx context.Context, from int) (evs []Event, final bool, err error) {
	for {
		j.mu.Lock()
		if from < len(j.events) {
			evs = append(evs, j.events[from:]...)
			final = j.finalLocked()
			j.mu.Unlock()
			return evs, final, nil
		}
		if j.finalLocked() {
			j.mu.Unlock()
			return nil, true, nil
		}
		ch := j.changed
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// maxRetainedJobs bounds the registry: beyond it, the oldest FINISHED
// jobs (and their event logs/checkpoints) are evicted at submit time.
// Running jobs are never evicted, so the registry can exceed the cap only
// by the number of concurrently running jobs. Without the bound, a
// long-lived server leaks one event log per job forever — clients rarely
// delete what they are done with.
const maxRetainedJobs = 256

// Jobs is a registry of jobs and the one scheduler they all run on, made
// with the registry and stopped by Close. Safe for concurrent use.
type Jobs struct {
	ctx       context.Context // every job's context descends from it
	scheduler *pipeline.Scheduler

	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
}

// NewJobs makes an empty registry whose jobs run under ctx — canceling it
// cancels every job — on a scheduler configured by sched. It starts no
// goroutine: each job starts its own.
func NewJobs(ctx context.Context, sched pipeline.Config) *Jobs {
	return &Jobs{ctx: ctx, scheduler: pipeline.New(sched), jobs: make(map[string]*Job)}
}

// Submit registers p as a new job and starts it; the job harvests through
// ret and resolves its entities with entity (see Plan.Run). Its resume
// checkpoints count as known state from the start, so a status read sees
// the full picture before the first ingest.
func (r *Jobs) Submit(p *Plan, ret core.Retriever, entity func(corpus.EntityID) *corpus.Entity) *Job {
	ctx, cancel := context.WithCancel(r.ctx)
	r.mu.Lock()
	r.seq++
	j := &Job{
		id:       fmt.Sprintf("j%d", r.seq),
		seq:      r.seq,
		cancel:   cancel,
		done:     make(chan struct{}),
		changed:  make(chan struct{}),
		state:    JobQueued,
		entities: len(p.Entities),
		cps:      make(map[corpus.EntityID]core.Checkpoint, len(p.Resume)),
	}
	r.jobs[j.id] = j
	r.evictFinishedLocked()
	r.mu.Unlock()
	for _, cp := range p.Resume {
		j.checkpoint(cp)
	}

	go func() {
		defer cancel()
		j.setState(JobRunning)
		p.Run(ctx, r.scheduler, ret, entity, j.emit, j.checkpoint)
		// An entity that failed under a canceled ctx — in its replay or on
		// the scheduler — was cut short, not broken.
		state := JobDone
		if ctx.Err() != nil && j.Status(false).Failed > 0 {
			state = JobCanceled
		}
		j.setState(state)
		close(j.done)
	}()
	return j
}

// evictFinishedLocked drops the oldest finished jobs past the retention
// cap. Caller holds r.mu.
func (r *Jobs) evictFinishedLocked() {
	for len(r.jobs) > maxRetainedJobs {
		var victim *Job
		for _, j := range r.jobs {
			j.mu.Lock()
			final := j.finalLocked()
			j.mu.Unlock()
			if final && (victim == nil || j.seq < victim.seq) {
				victim = j
			}
		}
		if victim == nil {
			return // everything over the cap is still running
		}
		delete(r.jobs, victim.id)
	}
}

// Get returns the job registered as id, or nil.
func (r *Jobs) Get(id string) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// Delete cancels job id if it is queued or running — its record stays
// until a second Delete, so the caller can read the final state and the
// checkpoints to resume from — and forgets it otherwise. It reports what
// it did ("canceling" or "deleted"), or false when no job is id.
func (r *Jobs) Delete(id string) (string, bool) {
	j := r.Get(id)
	if j == nil {
		return "", false
	}
	if st := j.State(); st == JobQueued || st == JobRunning {
		j.cancel()
		return "canceling", true
	}
	r.mu.Lock()
	delete(r.jobs, id)
	r.mu.Unlock()
	return "deleted", true
}

// Counts is the number of registered jobs in each state.
func (r *Jobs) Counts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]int, 4)
	for _, j := range r.jobs {
		m[j.State()]++
	}
	return m
}

// SchedulerStats snapshots the shared scheduler.
func (r *Jobs) SchedulerStats() pipeline.Stats { return r.scheduler.Stats() }

// Close stops the shared scheduler, failing whatever it still runs, and
// returns once its job goroutines have exited and every job it holds has
// reached a final state, its outcome events logged. Cancel the registry's
// context first, so the jobs are already aborting.
func (r *Jobs) Close() {
	r.scheduler.Close()
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	for _, j := range jobs {
		<-j.done
	}
}
