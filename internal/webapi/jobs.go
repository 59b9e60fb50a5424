package webapi

// The asynchronous jobs API. POST /api/v1/harvest holds its HTTP connection
// open for the whole batch — fine on a LAN, wrong for a long-running
// harvest whose submitter wants to disconnect, poll, resume elsewhere, or
// survive its own restart. The jobs API decouples submission from
// consumption:
//
//	POST   /api/v1/jobs          → {"id": "..."} (request body = HarvestRequest)
//	GET    /api/v1/jobs/{id}     → JobStatus (add ?checkpoints=1 for resume state)
//	GET    /api/v1/jobs/{id}?stream=1 → NDJSON replay-then-follow of all events
//	DELETE /api/v1/jobs/{id}     → cancel a running job / forget a finished one
//
// Jobs run on the server's shared scheduler under the server's lifecycle
// (not the submitting request's): the POST returns immediately, events
// accumulate in a per-job log that any number of readers can stream from
// the beginning, and the latest per-entity checkpoints are kept so a
// canceled (or crashed-client) harvest can be resumed by re-submitting
// with HarvestRequest.Resume.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// serverJob is one async job's record: an append-only event log with a
// broadcast channel for followers, per-entity checkpoints, and outcome
// counters.
type serverJob struct {
	id     string
	seq    int // registry eviction order (submission sequence)
	cancel context.CancelFunc

	mu       sync.Mutex
	changed  chan struct{}
	events   []HarvestEvent
	state    string
	entities int
	finished int
	failed   int
	cps      map[corpus.EntityID]core.Checkpoint
}

func newServerJob(id string, seq, entities int, cancel context.CancelFunc) *serverJob {
	return &serverJob{
		id:       id,
		seq:      seq,
		cancel:   cancel,
		changed:  make(chan struct{}),
		state:    JobQueued,
		entities: entities,
		cps:      make(map[corpus.EntityID]core.Checkpoint),
	}
}

// signalLocked wakes every waiter (stream followers, state pollers).
func (j *serverJob) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *serverJob) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.signalLocked()
	j.mu.Unlock()
}

func (j *serverJob) stateName() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// emit appends one event to the log, folding per-entity outcomes into the
// counters.
func (j *serverJob) emit(ev HarvestEvent) {
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
func (j *serverJob) checkpoint(cp core.Checkpoint) {
	j.mu.Lock()
	j.cps[cp.Entity] = cp
	j.mu.Unlock()
}

func (j *serverJob) finalState() bool {
	return j.state == JobDone || j.state == JobCanceled
}

func (j *serverJob) status(withCps bool) JobStatus {
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
	if withCps {
		ids := make([]corpus.EntityID, 0, len(j.cps))
		for id := range j.cps {
			ids = append(ids, id)
		}
		// Deterministic order: ascending entity ID.
		slices.Sort(ids)
		for _, id := range ids {
			st.Checkpoints = append(st.Checkpoints, j.cps[id])
		}
	}
	return st
}

// waitEvents returns the events from index `from` on, blocking until new
// ones arrive, the job reaches a final state, or ctx is done. final
// reports whether no further events will ever arrive past the returned
// slice.
func (j *serverJob) waitEvents(ctx context.Context, from int) (evs []HarvestEvent, final bool, err error) {
	for {
		j.mu.Lock()
		if from < len(j.events) {
			evs = append(evs, j.events[from:]...)
			final = j.finalState()
			j.mu.Unlock()
			return evs, final, nil
		}
		if j.finalState() {
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

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	hb := s.Harvest
	if hb == nil {
		writeError(w, http.StatusNotImplemented, "harvesting not enabled on this server")
		return
	}
	var req HarvestRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	p, perr := hb.plan(req)
	if perr != nil {
		writeError(w, perr.status, perr.msg)
		return
	}

	// The job belongs to the server lifecycle, not the submitting
	// request: the POST returns as soon as the job is registered.
	jctx, cancel := context.WithCancel(s.ctx)
	s.jobsMu.Lock()
	s.jobsSeq++
	id := fmt.Sprintf("j%d", s.jobsSeq)
	j := newServerJob(id, s.jobsSeq, len(req.Entities), cancel)
	if s.jobs == nil {
		s.jobs = make(map[string]*serverJob)
	}
	s.jobs[id] = j
	s.evictFinishedLocked()
	s.jobsMu.Unlock()
	// Resume checkpoints count as known state from the start, so a
	// status poll sees the full picture before the first ingest.
	for _, cp := range p.resume {
		j.checkpoint(cp)
	}

	go s.runJob(jctx, j, req, p)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{"id": id, "state": j.stateName()})
}

// runJob executes one async job on the shared scheduler, feeding the
// job's event log.
func (s *Server) runJob(ctx context.Context, j *serverJob, req HarvestRequest, p *harvestPlan) {
	defer j.cancel()
	j.setState(JobRunning)
	jobs, jobEntities, failed := s.Harvest.buildJobs(ctx, s, req, p, j.emit)

	results := s.submitHarvest(ctx, jobs, pipeline.BatchOptions{
		Budget: p.budget,
		Checkpoint: func(job int, cp core.Checkpoint) {
			j.checkpoint(cp)
		},
	})

	// An entity that failed under a canceled ctx — in its replay or on the
	// scheduler — was cut short, not broken.
	state := JobDone
	if cut := ctx.Err() != nil; emitOutcomes(j.emit, results, jobEntities, len(req.Entities), failed) > 0 && cut {
		state = JobCanceled
	}
	j.setState(state)
}

// maxRetainedJobs bounds the registry: beyond it, the oldest FINISHED
// jobs (and their event logs/checkpoints) are evicted at submit time.
// Running jobs are never evicted, so the registry can exceed the cap only
// by the number of concurrently running jobs. Without the bound, a
// long-lived server leaks one event log per job forever — clients rarely
// DELETE what they are done with.
const maxRetainedJobs = 256

// evictFinishedLocked drops the oldest finished jobs past the retention
// cap. Caller holds jobsMu.
func (s *Server) evictFinishedLocked() {
	for len(s.jobs) > maxRetainedJobs {
		var victim *serverJob
		for _, j := range s.jobs {
			j.mu.Lock()
			final := j.finalState()
			j.mu.Unlock()
			if final && (victim == nil || j.seq < victim.seq) {
				victim = j
			}
		}
		if victim == nil {
			return // everything over the cap is still running
		}
		delete(s.jobs, victim.id)
	}
}

func (s *Server) lookupJob(id string) *serverJob {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("stream") == "" {
		writeJSON(w, j.status(r.URL.Query().Get("checkpoints") != ""))
		return
	}

	// Replay-then-follow event stream (negotiated codec: wire frames or
	// NDJSON): everything logged so far, then live events until the job
	// reaches a final state. The stream also ends when the server shuts
	// down (the job itself is aborted by the same signal, so followers
	// see its final events first).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.ctx, cancel)
	defer stop()

	// A failed write cancels ctx, which ends the follow loop at the next
	// waitEvents — the reader is gone.
	emit := s.eventEmitter(w, r, cancel)
	from := 0
	for {
		evs, final, err := j.waitEvents(ctx, from)
		if err != nil {
			return // reader is gone or server is draining
		}
		for _, ev := range evs {
			emit(ev)
		}
		from += len(evs)
		if final {
			return
		}
	}
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.stateName() == JobQueued || j.stateName() == JobRunning {
		// Cancel; the record stays until a second DELETE so the caller
		// can read the final state and checkpoints to resume from.
		j.cancel()
		writeJSON(w, map[string]string{"id": id, "state": "canceling"})
		return
	}
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
	writeJSON(w, map[string]string{"id": id, "state": "deleted"})
}

// SubmitJob submits an asynchronous server-side harvest and returns its
// job ID. Unlike HarvestBatch, the call returns as soon as the server
// accepts the job; progress is consumed via JobStatus/StreamJob.
func (c *Client) SubmitJob(ctx context.Context, req HarvestRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("webapi: jobs: encode request: %w", err)
	}
	path := apiRoot + "/jobs"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("webapi: jobs: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.met.requests.Add(1)
	resp, err := c.http.Do(hreq)
	if err != nil {
		c.met.errors.Add(1)
		return "", &TransportError{Op: "jobs", Path: path, Attempts: 1, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		se := readError(resp)
		c.met.errors.Add(1)
		return "", &TransportError{Op: "jobs", Path: path, Attempts: 1, Status: resp.StatusCode,
			Code: se.code, Err: se}
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&out); err != nil || out.ID == "" {
		c.met.errors.Add(1)
		return "", &TransportError{Op: "jobs", Path: path, Attempts: 1,
			Err: fmt.Errorf("malformed job response: %v", err)}
	}
	return out.ID, nil
}

// JobStatus fetches a job's status; withCheckpoints includes the latest
// per-entity checkpoints (the Resume payload).
func (c *Client) JobStatus(ctx context.Context, id string, withCheckpoints bool) (JobStatus, error) {
	path := apiRoot + "/jobs/" + id
	if withCheckpoints {
		path += "?checkpoints=1"
	}
	var st JobStatus
	if err := c.getJSON(ctx, "jobstatus", path, &st); err != nil {
		return st, err
	}
	return st, nil
}

// StreamJob follows a job's event stream from the beginning (wire frames
// or NDJSON, whichever the server negotiates), delivering every event to
// onEvent in order until the job finishes, the stream fails, or onEvent
// returns an error.
func (c *Client) StreamJob(ctx context.Context, id string, onEvent func(HarvestEvent) error) error {
	path := apiRoot + "/jobs/" + id + "?stream=1"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("webapi: jobs: %w", err)
	}
	if c.wantWire() {
		hreq.Header.Set("Accept", wireContentType)
	}
	c.met.requests.Add(1)
	// Transport-less client: the per-request timeout would sever the
	// follow stream mid-job (same as HarvestBatch).
	resp, err := (&http.Client{}).Do(hreq)
	if err != nil {
		c.met.errors.Add(1)
		return &TransportError{Op: "jobstream", Path: path, Attempts: 1, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		se := readError(resp)
		c.met.errors.Add(1)
		return &TransportError{Op: "jobstream", Path: path, Attempts: 1, Status: resp.StatusCode,
			Code: se.code, Err: se}
	}
	return c.consumeEventStream(resp, "jobstream", path, onEvent)
}

// CancelJob cancels a running job (DELETE /api/v1/jobs/{id}); calling it
// on a finished job deletes the record instead.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	path := apiRoot + "/jobs/" + id
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("webapi: jobs: %w", err)
	}
	c.met.requests.Add(1)
	resp, err := c.http.Do(hreq)
	if err != nil {
		c.met.errors.Add(1)
		return &TransportError{Op: "jobcancel", Path: path, Attempts: 1, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		se := readError(resp)
		c.met.errors.Add(1)
		return &TransportError{Op: "jobcancel", Path: path, Attempts: 1, Status: resp.StatusCode,
			Code: se.code, Err: se}
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return nil
}

// Metrics fetches the server-side counters (GET /api/v1/metrics).
func (c *Client) ServerMetrics(ctx context.Context) (ServerMetrics, error) {
	var m ServerMetrics
	if err := c.getJSON(ctx, "metrics", apiRoot+"/metrics", &m); err != nil {
		return m, err
	}
	return m, nil
}
