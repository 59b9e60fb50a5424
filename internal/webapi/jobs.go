package webapi

// The jobs API: the one surface a server-side harvest is submitted,
// followed and stopped through.
//
//	POST   /api/v1/jobs          → {"id": "..."} (request body = harvest.Request)
//	GET    /api/v1/jobs/{id}     → harvest.JobStatus (add ?checkpoints=1 for resume state)
//	GET    /api/v1/jobs/{id}?stream=1 → NDJSON replay-then-follow of all events
//	DELETE /api/v1/jobs/{id}     → cancel a running job / forget a finished one
//
// What a job is — its plan, its run on the shared scheduler, its event log
// and checkpoints, the registry that keeps it — is internal/harvest's; the
// handlers here decode a request, call the registry and encode its answer.
// A submitter that wants a harvest scoped to its own call — stay for the
// events, stop the work by leaving — composes that from the same three
// requests: Client.HarvestBatch.
//
// Event streams are NDJSON and nothing else. A budget-5 entity's whole
// stream is under a kilobyte beside the tens of kilobytes of pages the same
// harvest moves, and no benchmarked workload streams at all, so a binary
// framing of events (wire kind 6, retired — see wire.go) paid for a second
// frame parser with nothing measurable. What a stream guarantees is its
// last line: "done" is written once, after every entity's outcome, so a
// reader that has not seen it knows the stream was cut.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"l2q/internal/harvest"
	"l2q/internal/pipeline"
)

// maxJobBody bounds a job submission: entity IDs and resume checkpoints,
// never pages.
const maxJobBody = 1 << 20

// jobsBackend returns the single-node backend server-side sessions run
// beside — its entity table, its live engine — or answers 501 itself (ok
// false) on a node or coordinator server: a node holds a fraction of the
// corpus, and a harvest through a cluster is a Client session dialed to
// the coordinator.
func (s *Server) jobsBackend(w http.ResponseWriter) (b *localBackend, ok bool) {
	if b, ok = s.backend.(*localBackend); !ok {
		writeError(w, http.StatusNotImplemented,
			"no jobs on a cluster server: harvest through a cluster as a remote session against the coordinator")
	}
	return b, ok
}

// harvestJobs returns the server's job registry, made on first use with
// MaxInFlight, when set, as its bound on running jobs: excess jobs wait in
// the shared scheduler's FIFO instead of thrashing workers.
func (s *Server) harvestJobs() *harvest.Jobs {
	s.jobsOnce.Do(func() {
		s.jobs = harvest.NewJobs(s.ctx, pipeline.Config{MaxActive: s.MaxInFlight})
	})
	return s.jobs
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	b, ok := s.jobsBackend(w)
	if !ok {
		return
	}
	hb := s.Harvest
	if hb == nil {
		writeError(w, http.StatusNotImplemented, "harvesting not enabled on this server")
		return
	}
	body, ok := readBody(w, r, maxJobBody)
	if !ok {
		return
	}
	var req harvest.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	p, err := hb.Plan(req)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.As(err, new(*harvest.RequestError)) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err.Error())
		return
	}
	// The job belongs to the server lifecycle, not the submitting
	// request: the POST returns as soon as the job is registered.
	j := s.harvestJobs().Submit(p, b.live, b.entity)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{"id": j.ID(), "state": j.State()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.jobsBackend(w); !ok {
		return
	}
	j := s.harvestJobs().Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("stream") == "" {
		writeJSON(w, j.Status(r.URL.Query().Get("checkpoints") != ""))
		return
	}

	// Replay-then-follow event stream: everything logged so far, then live
	// events until the job reaches a final state — its "done" line is then
	// the last one written. A server shutting down stops following at
	// whatever event it is at (the same signal aborts the job), so the
	// stream may end early, without "done"; the client reports that as an
	// error (StreamJob), never as a finished harvest.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.ctx, cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		evs, final, err := j.Events(ctx, from)
		if err != nil {
			return // reader is gone or server is draining
		}
		for _, ev := range evs {
			// Roll the write deadline forward per event: the stream may run
			// arbitrarily long, but a reader that stops consuming is cut off
			// within writeTimeout (deadline errors are best-effort — not
			// every ResponseWriter supports them).
			_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := enc.Encode(ev); err != nil {
				// A stalled connection does not cancel r.Context() by
				// itself, so this write failure is the signal: the reader is
				// gone, stop following.
				return
			}
		}
		if fl != nil {
			fl.Flush()
		}
		from += len(evs)
		if final {
			return
		}
	}
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.jobsBackend(w); !ok {
		return
	}
	id := r.PathValue("id")
	state, ok := s.harvestJobs().Delete(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, map[string]string{"id": id, "state": state})
}

// SubmitJob submits a server-side harvest and returns its job ID as soon as
// the server accepts it; progress is consumed via JobStatus/StreamJob. Sent
// once: every accepted submit is a new job.
func (c *Client) SubmitJob(ctx context.Context, req harvest.Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("webapi: jobs: encode request: %w", err)
	}
	var out struct {
		ID string `json:"id"`
	}
	submit := request{method: http.MethodPost, path: apiRoot + "/jobs", body: body, contentType: "application/json", once: true}
	err = c.do(ctx, "jobs", submit, func(b []byte) error {
		if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
			return fmt.Errorf("malformed job response: %v", err)
		}
		return nil
	})
	return out.ID, err
}

// JobStatus fetches a job's status; withCheckpoints includes the latest
// per-entity checkpoints (the Resume payload).
func (c *Client) JobStatus(ctx context.Context, id string, withCheckpoints bool) (harvest.JobStatus, error) {
	path := apiRoot + "/jobs/" + id
	if withCheckpoints {
		path += "?checkpoints=1"
	}
	var st harvest.JobStatus
	err := c.getJSON(ctx, "jobstatus", path, &st)
	return st, err
}

// StreamJob follows a job's NDJSON event stream from the beginning,
// delivering every event to onEvent in order. A non-nil onEvent error
// aborts the stream and is returned verbatim. The stream is unbounded in
// time, so it is read through a client without c.http's per-request
// Timeout, which would sever it mid-job: patience comes from ctx. Opening
// it is retried under the client's RetryPolicy up to the response header —
// GET …?stream=1 replays from event 0, so until its first body byte it is
// idempotent, and a 429 shed, a refused connection or a 5xx there must not
// orphan the job it was about to follow; reading it is not retried. It is
// complete when its last line is the "done" summary: a body that ends any
// earlier — a draining server stops following at whatever event it is at,
// and a severed connection looks no different — is a *TransportError
// wrapping io.ErrUnexpectedEOF, never a finished harvest.
func (c *Client) StreamJob(ctx context.Context, id string, onEvent func(harvest.Event) error) error {
	path := apiRoot + "/jobs/" + id + "?stream=1"
	var body io.ReadCloser
	err := c.doRetry(ctx, "jobstream", path, c.retry.MaxAttempts, func() ([]byte, error) {
		resp, err := c.send(ctx, &http.Client{Transport: c.http.Transport}, request{path: path})
		if err == nil {
			body = resp.Body
		}
		return nil, err
	}, nil)
	if err != nil {
		return err
	}
	defer body.Close()
	fail := func(err error) error {
		c.met.errors.Add(1)
		return &TransportError{Op: "jobstream", Path: path, Attempts: 1, Err: err}
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), maxResponseBytes)
	done := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev harvest.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fail(fmt.Errorf("malformed event %q: %w", line, err))
		}
		done = ev.Type == "done"
		if onEvent != nil {
			if err := onEvent(ev); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	if !done {
		return fail(fmt.Errorf("event stream ended before its done line: %w", io.ErrUnexpectedEOF))
	}
	return nil
}

// CancelJob cancels a running job (DELETE /api/v1/jobs/{id}); calling it
// on a finished job deletes the record instead. Sent once, whatever the
// retry policy: re-sent after a lost acknowledgement, the DELETE would find
// the job it had just canceled finished, and forget it — checkpoints and
// all.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.do(ctx, "jobcancel", request{method: http.MethodDelete, path: apiRoot + "/jobs/" + id, once: true}, nil)
}

// leaveTimeout bounds the DELETE HarvestBatch sends on its way out.
const leaveTimeout = 5 * time.Second

// HarvestBatch is a harvest scoped to one call: it submits req as a job,
// follows the job's stream into onEvent (StreamJob's contract: events in
// arrival order, an onEvent error returned verbatim, a stream without
// "done" an error) and on the way out sends the job one DELETE, under a
// context that outlives the caller's. That cancels a job the caller left
// early — ctx done, onEvent failed, stream cut — and forgets one that
// finished, so the work stops when the caller leaves and the server
// retains nothing. The DELETE is best-effort: a client that dies before
// sending it leaves a job that runs to its bounded end (50 queries an
// entity) and is evicted once the server retains 256 newer finished jobs.
func (c *Client) HarvestBatch(ctx context.Context, req harvest.Request, onEvent func(harvest.Event) error) error {
	id, err := c.SubmitJob(ctx, req)
	if err != nil {
		return err
	}
	defer func() {
		leave, cancel := context.WithTimeout(context.WithoutCancel(ctx), leaveTimeout)
		defer cancel()
		_ = c.CancelJob(leave, id) // best-effort, see above
	}()
	return c.StreamJob(ctx, id, onEvent)
}

// ServerMetrics fetches the server-side counters (GET /api/v1/metrics).
func (c *Client) ServerMetrics(ctx context.Context) (ServerMetrics, error) {
	var m ServerMetrics
	err := c.getJSON(ctx, "metrics", apiRoot+"/metrics", &m)
	return m, err
}
