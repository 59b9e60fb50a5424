package webapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/harvest"
	"l2q/internal/pipeline"
)

// jobTargets picks the last n entities of the fixture corpus.
func jobTargets(f *harvestFixture, n int) []corpus.EntityID {
	ents := f.g.Corpus.Entities
	out := make([]corpus.EntityID, 0, n)
	for _, e := range ents[len(ents)-n:] {
		out = append(out, e.ID)
	}
	return out
}

// waitFinal follows j's event log in-package until the job has reached a
// final state — no polling, no clock but ctx's — and returns its status.
func waitFinal(ctx context.Context, t *testing.T, j *harvest.Job) harvest.JobStatus {
	t.Helper()
	for from, final := 0, false; !final; {
		evs, fin, err := j.Events(ctx, from)
		if err != nil {
			t.Fatalf("job %s never reached a final state: %v (status %+v)", j.ID(), err, j.Status(false))
		}
		from, final = from+len(evs), fin
	}
	return j.Status(false)
}

// registeredJobs counts the jobs in s's registry, in every state.
func registeredJobs(s *Server) int {
	n := 0
	for _, c := range s.harvestJobs().Counts() {
		n += c
	}
	return n
}

// localReference harvests one entity in-process with the server's seeding
// convention.
func (f *harvestFixture) localReference(t testing.TB, id corpus.EntityID, nQueries int) ([]core.Query, []corpus.PageID) {
	return f.harvestVia(t, f.engine, id, nQueries)
}

// harvestVia harvests one entity through ret with the server's seeding
// convention.
func (f *harvestFixture) harvestVia(t testing.TB, ret core.Retriever, id corpus.EntityID, nQueries int) ([]core.Query, []corpus.PageID) {
	e := f.g.Corpus.Entity(id)
	sess := core.NewSession(f.cfg, ret, e, f.aspect, f.y, f.dm, f.rec, uint64(id)+1)
	fired := mustRun(t, sess, core.NewL2QBAL(), nQueries)
	var pages []corpus.PageID
	for _, p := range sess.Pages() {
		pages = append(pages, p.ID)
	}
	return fired, pages
}

// TestJobsLifecycle: POST a job, stream its events to completion, verify
// parity with the in-process reference, and watch the status endpoint
// reach "done".
func TestJobsLifecycle(t *testing.T) {
	f := newHarvestFixture(t)
	targets := jobTargets(f, 3)
	const nQueries = 2

	id, err := f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: targets,
		Aspect:   string(f.aspect),
		NQueries: nQueries,
	})
	if err != nil {
		t.Fatal(err)
	}

	finished := make(map[corpus.EntityID]harvest.Event)
	var done *harvest.Event
	progress := 0
	err = f.client.StreamJob(context.Background(), id, func(ev harvest.Event) error {
		switch ev.Type {
		case "progress":
			progress++
		case "entity":
			finished[ev.Entity] = ev
		case "error":
			t.Errorf("unexpected error event %+v", ev)
		case "done":
			ev := ev
			done = &ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done == nil || done.Entities != len(targets) || done.Failed != 0 {
		t.Fatalf("done summary %+v", done)
	}
	if progress != len(targets)*nQueries {
		t.Errorf("%d progress events, want %d", progress, len(targets)*nQueries)
	}
	for _, tid := range targets {
		wantFired, wantPages := f.localReference(t, tid, nQueries)
		got, ok := finished[tid]
		if !ok {
			t.Fatalf("entity %d: no completion event", tid)
		}
		gotFired := make([]core.Query, len(got.Fired))
		for i, q := range got.Fired {
			gotFired[i] = core.Query(q)
		}
		if !reflect.DeepEqual(gotFired, wantFired) {
			t.Errorf("entity %d fired %v, want %v", tid, gotFired, wantFired)
		}
		if !reflect.DeepEqual(got.Pages, wantPages) {
			t.Errorf("entity %d pages differ", tid)
		}
	}

	st, err := f.client.JobStatus(context.Background(), id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != harvest.JobDone || st.Finished != len(targets) || st.Failed != 0 {
		t.Errorf("status %+v, want done/%d/0", st, len(targets))
	}
	if len(st.Checkpoints) != len(targets) {
		t.Errorf("%d checkpoints, want %d", len(st.Checkpoints), len(targets))
	}
	for _, cp := range st.Checkpoints {
		if len(cp.Fired) != nQueries || !cp.Booted {
			t.Errorf("checkpoint %+v not final", cp)
		}
	}

	// A second stream replays the full event log identically.
	replayed := 0
	if err := f.client.StreamJob(context.Background(), id, func(harvest.Event) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != st.Events {
		t.Errorf("replay saw %d events, status reports %d", replayed, st.Events)
	}

	// DELETE on a finished job forgets it.
	if err := f.client.CancelJob(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.JobStatus(context.Background(), id, false); err == nil {
		t.Error("deleted job still answers status")
	}
}

// TestJobsCancelResume is the acceptance flow: a job killed mid-harvest
// is resumed from its checkpoints and finishes with the same fired-query
// sequences as an uninterrupted run.
func TestJobsCancelResume(t *testing.T) {
	f := newHarvestFixture(t)
	targets := jobTargets(f, 4)
	// A budget large enough that the job cannot complete inside the
	// cancellation window on any machine — incremental candidate pools
	// and session graphs made small harvests finish in single-digit
	// milliseconds, which used to let the job reach Done before the
	// DELETE landed (turning the cancel into a forget and the status
	// poll into a 404).
	const nQueries = 24

	// Uninterrupted references.
	wantFired := make(map[corpus.EntityID][]core.Query)
	for _, id := range targets {
		fired, _ := f.localReference(t, id, nQueries)
		wantFired[id] = fired
	}

	id, err := f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: targets,
		Aspect:   string(f.aspect),
		NQueries: nQueries,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let some queries land, then cancel — from inside the job's own stream,
	// at its third event — and keep reading: the stream ends when the job
	// has reached its final state, so the status read after it is final too.
	events := 0
	if err := f.client.StreamJob(context.Background(), id, func(harvest.Event) error {
		if events++; events == 3 {
			return f.client.CancelJob(context.Background(), id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st, err := f.client.JobStatus(context.Background(), id, true)
	if err != nil {
		var te *TransportError
		if !errors.As(err, &te) || te.Status != http.StatusNotFound {
			t.Fatal(err)
		}
		// DELETE on a finished job forgets the record instead of canceling:
		// the job completed before the DELETE landed. No checkpoints
		// survive; resume degenerates to a from-scratch run, which the
		// parity assertion below still covers.
		st = harvest.JobStatus{State: harvest.JobDone}
	}
	if st.State != harvest.JobCanceled && st.State != harvest.JobDone {
		t.Fatalf("job in state %q after its stream ended, want a final state", st.State)
	}
	if st.State == harvest.JobDone {
		t.Log("job finished before cancellation; resume degenerates to a replay")
	}

	// Resume from the recorded checkpoints; entities without one restart
	// from scratch.
	prior := make(map[corpus.EntityID][]core.Query)
	for _, cp := range st.Checkpoints {
		prior[cp.Entity] = cp.Fired
	}
	id2, err := f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: targets,
		Aspect:   string(f.aspect),
		NQueries: nQueries,
		Resume:   st.Checkpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	finished := make(map[corpus.EntityID]harvest.Event)
	if err := f.client.StreamJob(context.Background(), id2, func(ev harvest.Event) error {
		if ev.Type == "entity" {
			finished[ev.Entity] = ev
		}
		if ev.Type == "error" {
			t.Errorf("resume error event: %+v", ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, tid := range targets {
		got := append([]core.Query(nil), prior[tid]...)
		for _, q := range finished[tid].Fired {
			got = append(got, core.Query(q))
		}
		if !reflect.DeepEqual(got, wantFired[tid]) {
			t.Errorf("entity %d: canceled+resumed fired %v, uninterrupted %v", tid, got, wantFired[tid])
		}
	}
}

// TestEventStreamNeedsDone: "done" is the checked end of an event stream. A
// body that ends at an event boundary without it — what a draining server
// writes — is a *TransportError wrapping io.ErrUnexpectedEOF after its
// events were delivered; the same body plus the done line is a finished
// harvest.
func TestEventStreamNeedsDone(t *testing.T) {
	f := newFixture(t)
	const cut = `{"type":"progress","entity":1,"iteration":1,"query":"a"}` + "\n" +
		`{"type":"entity","entity":1,"fired":["a"],"pages":[2]}` + "\n"
	for _, tc := range []struct {
		name, body string
		complete   bool
	}{
		{"cut at an event boundary", cut, false},
		{"ends with done", cut + `{"type":"done","entities":1}` + "\n", true},
	} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, tc.body)
		}))
		c := derivedClient(f, stub.URL, fastRetry)
		delivered := 0
		err := c.StreamJob(context.Background(), "j1", func(harvest.Event) error { delivered++; return nil })
		stub.Close()
		var te *TransportError
		switch {
		case tc.complete && (err != nil || delivered != 3):
			t.Errorf("%s: %v after %d events, want nil after 3", tc.name, err, delivered)
		case !tc.complete && (!errors.As(err, &te) || !errors.Is(err, io.ErrUnexpectedEOF) || delivered != 2):
			t.Errorf("%s: %v after %d events, want a *TransportError wrapping io.ErrUnexpectedEOF after 2", tc.name, err, delivered)
		case !tc.complete && (te.Attempts != 1 || c.Metrics().Retries != 0):
			t.Errorf("%s: %d attempts, %d retries; a stream that has started is never re-read", tc.name, te.Attempts, c.Metrics().Retries)
		}
	}
}

// TestJobsAdaptiveBudget: a pooled adaptive budget is respected end to
// end through the wire format.
func TestJobsAdaptiveBudget(t *testing.T) {
	f := newHarvestFixture(t)
	targets := jobTargets(f, 3)
	const nQueries = 3
	budget := nQueries * len(targets)

	id, err := f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: targets,
		Aspect:   string(f.aspect),
		NQueries: nQueries,
		Budget:   &harvest.BudgetSpec{Mode: "adaptive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := f.client.StreamJob(context.Background(), id, func(ev harvest.Event) error {
		if ev.Type == "entity" {
			total += len(ev.Fired)
		}
		if ev.Type == "error" {
			t.Errorf("error event: %+v", ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total > budget {
		t.Errorf("adaptive job fired %d queries on a budget of %d", total, budget)
	}
	if total == 0 {
		t.Error("adaptive job fired nothing")
	}
}

// TestJobsValidation: request rejections and unknown-ID handling.
func TestJobsValidation(t *testing.T) {
	f := newHarvestFixture(t)

	if _, err := f.client.SubmitJob(context.Background(), harvest.Request{Aspect: string(f.aspect)}); err == nil {
		t.Error("empty entity list accepted")
	}
	_, err := f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: jobTargets(f, 1), Aspect: string(f.aspect), NQueries: 1,
		Budget: &harvest.BudgetSpec{Mode: "yolo"},
	})
	var te *TransportError
	if !errors.As(err, &te) || te.Status != http.StatusBadRequest {
		t.Errorf("bad budget mode: %v, want 400", err)
	}
	_, err = f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: jobTargets(f, 1), Aspect: string(f.aspect), NQueries: 1,
		Resume: []core.Checkpoint{{Entity: 0, Aspect: "WRONG"}},
	})
	if !errors.As(err, &te) || te.Status != http.StatusBadRequest {
		t.Errorf("wrong-aspect resume: %v, want 400", err)
	}

	if _, err := f.client.JobStatus(context.Background(), "nope", false); err == nil {
		t.Error("unknown job id answered status")
	}
	if err := f.client.CancelJob(context.Background(), "nope"); err == nil {
		t.Error("unknown job id accepted cancel")
	}
}

// TestMetricsEndpoint: the server-side counters mirror activity.
func TestMetricsEndpoint(t *testing.T) {
	f := newHarvestFixture(t)

	m, err := f.client.ServerMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Error("requests counter stuck at zero (Dial already issued requests)")
	}
	if st := m.Scheduler; st != (pipeline.Stats{SelectWorkers: st.SelectWorkers, FetchWorkers: st.FetchWorkers}) {
		t.Errorf("scheduler stats before any harvest: %+v, want the section with every counter zero", st)
	}

	// One sync harvest runs on the shared scheduler.
	targets := jobTargets(f, 2)
	if err := f.client.HarvestBatch(context.Background(), harvest.Request{
		Entities: targets, Aspect: string(f.aspect), NQueries: 1,
	}, nil); err != nil {
		t.Fatal(err)
	}
	m, err = f.client.ServerMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheduler.FinishedJobs != int64(len(targets)) {
		t.Errorf("FinishedJobs = %d, want %d", m.Scheduler.FinishedJobs, len(targets))
	}
	if m.Scheduler.FiredQueries != int64(len(targets)) {
		t.Errorf("FiredQueries = %d, want %d", m.Scheduler.FiredQueries, len(targets))
	}

	// An async job shows up in the jobs map.
	id, err := f.client.SubmitJob(context.Background(), harvest.Request{
		Entities: targets, Aspect: string(f.aspect), NQueries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.StreamJob(context.Background(), id, nil); err != nil {
		t.Fatal(err)
	}
	m, err = f.client.ServerMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs[harvest.JobDone] != 1 {
		t.Errorf("jobs map %v, want one done job", m.Jobs)
	}
}

// FuzzJobStream serves any body as a job's ?stream=1 response and reads it
// with Client.StreamJob. The reader never panics; it hands onEvent every
// event in order up to the first line that does not decode; and it returns
// nil exactly when every non-blank line decodes and the last one is a
// "done" event — a stream cut before its done line, or one that runs on
// past it, is a *TransportError, and so is a malformed line. Seeded with a
// real stream, its truncation at every line, the stream without its done
// line, and done followed by one more event.
func FuzzJobStream(f *testing.F) {
	hf := newHarvestFixture(f)
	id, err := hf.client.SubmitJob(context.Background(), harvest.Request{Entities: jobTargets(hf, 2), Aspect: string(hf.aspect), NQueries: 1})
	if err != nil {
		f.Fatal(err)
	}
	resp, err := http.Get(hf.srv.URL + apiRoot + "/jobs/" + id + "?stream=1")
	if err != nil {
		f.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.HasSuffix(stream, []byte("\n")) {
		f.Fatalf("reading a real stream: %v (%q)", err, stream)
	}
	lines := bytes.SplitAfter(stream, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter's empty tail
	for i := range lines {
		f.Add(bytes.Join(lines[:i], nil))
	}
	f.Add(stream)
	f.Add(append(bytes.Clone(stream), lines[0]...))

	// Every request but the stream goes to the real server, which the
	// client dials; the stream answers with the body filed under its job ID.
	var bodies sync.Map
	real := hf.server.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("stream") == "" {
			real.ServeHTTP(w, r)
			return
		}
		body, _ := bodies.Load(strings.TrimPrefix(r.URL.Path, apiRoot+"/jobs/"))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body.([]byte))
	}))
	f.Cleanup(srv.Close)
	client, err := DialContext(context.Background(), srv.URL, hf.g.Tokenizer, ClientOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var seq atomic.Int64

	f.Fuzz(func(t *testing.T, body []byte) {
		var want []harvest.Event
		complete := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			var ev harvest.Event
			if json.Unmarshal(line, &ev) != nil {
				complete = false
				break
			}
			want = append(want, ev)
			complete = ev.Type == "done"
		}

		id := strconv.FormatInt(seq.Add(1), 10)
		bodies.Store(id, body)
		defer bodies.Delete(id)
		var got []harvest.Event
		err := client.StreamJob(context.Background(), id, func(ev harvest.Event) error {
			got = append(got, ev)
			return nil
		})
		var te *TransportError
		if complete && err != nil || !complete && !errors.As(err, &te) {
			t.Fatalf("StreamJob = %v on a stream whose lines decode to a done-terminated log = %v", err, complete)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("onEvent saw %+v, want %+v", got, want)
		}
	})
}

// TestJobCallsOnceAndStreamUntimed holds the client's two rules for the jobs
// API that a retry policy and a timeout must not bend: a submit and a cancel
// reach the server exactly once — a second delivery would start a second job
// or forget the one just canceled — even when the answer is a retryable 503,
// and a job's event stream is read without the per-request Timeout, which
// would cut a long job off mid-stream.
func TestJobCallsOnceAndStreamUntimed(t *testing.T) {
	const timeout = 100 * time.Millisecond
	var submits, cancels atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == apiRoot+"/stats":
			writeJSON(w, Stats{Mu: 100, TopK: 10})
		case r.Method == http.MethodPost:
			submits.Add(1)
			writeError(w, http.StatusServiceUnavailable, "overloaded")
		case r.Method == http.MethodDelete:
			cancels.Add(1)
			writeError(w, http.StatusServiceUnavailable, "overloaded")
		default: // the stream: one event now, "done" once released
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = json.NewEncoder(w).Encode(harvest.Event{Type: "progress"})
			w.(http.Flusher).Flush()
			select {
			case <-release:
				_ = json.NewEncoder(w).Encode(harvest.Event{Type: "done"})
			case <-r.Context().Done():
			}
		}
	}))
	defer srv.Close()
	ctx := context.Background()
	c, err := DialContext(ctx, srv.URL, nil, ClientOptions{Retry: RetryPolicy{MaxAttempts: 4}, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}

	_, submitErr := c.SubmitJob(ctx, harvest.Request{Entities: []corpus.EntityID{0}, Aspect: "RESEARCH", NQueries: 1})
	cancelErr := c.CancelJob(ctx, "j1")
	for _, call := range []struct {
		name string
		err  error
		sent int64
	}{{"submit", submitErr, submits.Load()}, {"cancel", cancelErr, cancels.Load()}} {
		var te *TransportError
		if !errors.As(call.err, &te) || te.Attempts != 1 || te.Status != http.StatusServiceUnavailable || call.sent != 1 {
			t.Errorf("%s against a 503: %v, sent %d times; want one attempt and a *TransportError", call.name, call.err, call.sent)
		}
	}

	time.AfterFunc(4*timeout, func() { close(release) })
	var got []string
	err = c.StreamJob(ctx, "j1", func(ev harvest.Event) error {
		got = append(got, ev.Type)
		return nil
	})
	if err != nil || !reflect.DeepEqual(got, []string{"progress", "done"}) {
		t.Errorf("a stream open past the %v Timeout: events %v, %v; want progress and done", timeout, got, err)
	}
}
