package webapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/harvest"
	"l2q/internal/synth"
)

func admissionFixture(t *testing.T, maxInFlight int) (*Server, *httptest.Server) {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(g.Corpus, bootLive(g.Corpus), nil)
	server.MaxInFlight = maxInFlight
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	return server, srv
}

// TestMaxInFlightShedEnvelope pins the admission-control contract: a
// request arriving past the MaxInFlight bound is answered immediately
// with 429 and the retryable "throttled" error envelope, /healthz stays
// exempt, the Shed counter advances, and once the slot frees the same
// request succeeds. The slot is held directly (in-package) so the test
// is deterministic rather than a timing race.
func TestMaxInFlightShedEnvelope(t *testing.T) {
	server, srv := admissionFixture(t, 1)

	sem := server.inflightSem()
	if sem == nil || cap(sem) != 1 {
		t.Fatalf("inflight semaphore = %v, want capacity 1", sem)
	}
	sem <- struct{}{} // saturate: one request permanently in flight

	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("shed body is not the error envelope: %v", err)
	}
	if env.Error.Code != "throttled" || !env.Error.Retryable || env.Error.Message == "" {
		t.Fatalf("shed envelope = %+v, want retryable code throttled", env.Error)
	}
	if server.shed.Load() == 0 {
		t.Fatal("Shed counter did not advance")
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while saturated: status %d, want 200 (probes must see an overloaded server as alive)", hz.StatusCode)
	}

	<-sem // free the slot
	ok, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, want 200", ok.StatusCode)
	}
}

// TestSaturationShedsWithoutLosingJobs is the sustained-overload contract
// on a harvesting server admitting one request at a time: under mixed
// traffic from more callers than slots, every response is either served
// (2xx) or shed with the retryable 429 "throttled" envelope — nothing
// else, nothing bare — the Shed counter equals the 429s the callers saw,
// a submit that answered 202 is a job that reaches a terminal state, a
// submit that was shed left no job behind, and the admission slot is free
// at the end. Replayable: phase 1 holds the slot in-package so every
// operation kind is shed for certain, phase 2 releases it and runs a fixed
// count of operations per caller in a fixed order, retries off; the test
// waits on job events and the semaphore, never on a clock.
func TestSaturationShedsWithoutLosingJobs(t *testing.T) {
	f := newHarvestFixture(t)
	server := NewServer(f.g.Corpus, bootLive(f.g.Corpus), nil)
	server.Harvest = f.server.Harvest
	server.MaxInFlight = 1
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { server.Shutdown(context.Background()) })

	target := f.g.Corpus.Entities[f.g.Corpus.NumEntities()-1]
	search := "/api/v1/search?" + url.Values{"seed": target.SeedTokens(), "q": {"research"}}.Encode()
	job, err := json.Marshal(harvest.Request{Entities: []corpus.EntityID{target.ID}, Aspect: string(f.aspect), NQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct{ name, method, path, accept, body string }{
		{"search/json", "GET", search, "", ""},
		{"search/wire", "GET", search, wireContentType, ""},
		{"page", "GET", fmt.Sprintf("/page/%d.html", f.g.Corpus.Pages[0].ID), "", ""},
		{"metrics", "GET", "/api/v1/metrics", "", ""},
		{"job", "POST", "/api/v1/jobs", "", string(job)},
	}

	// tally is one caller's view: responses served, responses shed, the
	// jobs the server said it accepted.
	type tally struct {
		served, shed int
		jobs         []string
	}
	issue := func(op int, into *tally) {
		o := ops[op]
		req, err := http.NewRequest(o.method, srv.URL+o.path, strings.NewReader(o.body))
		if err != nil {
			t.Error(err)
			return
		}
		if o.accept != "" {
			req.Header.Set("Accept", o.accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Errorf("%s: %v", o.name, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("%s: read body: %v", o.name, err)
			return
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "throttled" ||
				!env.Error.Retryable || env.Error.Message == "" {
				t.Errorf("%s: shed with %q, want the retryable throttled envelope", o.name, body)
			}
			into.shed++
		case resp.StatusCode/100 == 2:
			into.served++
			if o.name == "job" {
				var accepted struct{ ID string }
				if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
					t.Errorf("job: status %d with body %q, want a job id", resp.StatusCode, body)
				}
				into.jobs = append(into.jobs, accepted.ID)
			}
		default:
			t.Errorf("%s: status %d (%q), want 2xx or 429", o.name, resp.StatusCode, body)
		}
	}

	// Phase 1: the slot is taken, so every kind of operation is shed.
	sem := server.inflightSem()
	sem <- struct{}{}
	var total tally
	for op := range ops {
		issue(op, &total)
	}
	if total.shed != len(ops) || total.served != 0 {
		t.Fatalf("with the slot held: %d shed, %d served; want all %d shed", total.shed, total.served, len(ops))
	}
	<-sem

	// Phase 2: more callers than slots, a fixed number of operations each.
	const callers, opsPerCaller = 8, 25
	tallies := make([]tally, callers)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerCaller; i++ {
				issue((c+i)%len(ops), &tallies[c])
			}
		}()
	}
	wg.Wait()
	for _, tl := range tallies {
		total.served += tl.served
		total.shed += tl.shed
		total.jobs = append(total.jobs, tl.jobs...)
	}
	if want := len(ops) + callers*opsPerCaller; total.served+total.shed != want {
		t.Errorf("%d served + %d shed, want %d responses accounted for", total.served, total.shed, want)
	}
	if total.served == 0 {
		t.Error("nothing was served once the slot was released")
	}
	if got := server.shed.Load(); got != int64(total.shed) {
		t.Errorf("shed = %d, callers counted %d responses with status 429", got, total.shed)
	}

	// Every accepted job finishes; a shed submit created none.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range total.jobs {
		j := server.harvestJobs().Get(id)
		if j == nil {
			t.Fatalf("job %s was accepted with 202 and is not in the registry", id)
		}
		if st := waitFinal(ctx, t, j); st.State != harvest.JobDone || st.Finished != 1 || st.Failed != 0 {
			t.Errorf("job %s ended as %+v, want done with its one entity finished", id, st)
		}
	}
	if registered := registeredJobs(server); registered != len(total.jobs) {
		t.Errorf("%d jobs registered, %d submits were answered 202", registered, len(total.jobs))
	}

	// Taking the only slot proves every request gave its own back.
	select {
	case sem <- struct{}{}:
		<-sem
	case <-ctx.Done():
		t.Fatalf("admission slot still held after all traffic ended (%d in flight)", len(sem))
	}
}

// TestStreamOpenRetriesPastShed: opening a job's stream replays from event
// 0, so it runs under the client's retry policy up to the response header.
// On a server admitting one request at a time the submit is accepted, the
// slot is then held in-package until the stream's first open has certainly
// been shed, and released: the retry gets through and the stream arrives
// complete — where a single-attempt open would have left an accepted job
// running with nobody following it.
func TestStreamOpenRetriesPastShed(t *testing.T) {
	f := newHarvestFixture(t)
	server := NewServer(f.g.Corpus, bootLive(f.g.Corpus), nil)
	server.Harvest = f.server.Harvest
	server.MaxInFlight = 1
	handler := server.Handler()
	answered := make(chan struct{}, fastRetry.MaxAttempts)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
		if r.URL.Query().Get("stream") != "" {
			answered <- struct{}{}
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { server.Shutdown(context.Background()) })
	client, err := DialContext(context.Background(), srv.URL, f.g.Tokenizer, ClientOptions{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}

	targets := jobTargets(f, 2)
	id, err := client.SubmitJob(context.Background(), harvest.Request{Entities: targets, Aspect: string(f.aspect), NQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	sem := server.inflightSem()
	sem <- struct{}{}
	go func() {
		<-answered // the first open came back, and the slot was held: shed
		<-sem
	}()
	var evs []harvest.Event
	if err := client.StreamJob(context.Background(), id, func(ev harvest.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatalf("stream open was shed and not retried: %v", err)
	}
	streamByEntity(t, evs, len(targets)) // complete: every entity closed, done last
	if m := client.Metrics(); m.Retries == 0 || m.Errors != 0 || server.shed.Load() == 0 {
		t.Errorf("client %+v, server shed %d; want the shed open absorbed by a retry", m, server.shed.Load())
	}
}

// TestMaxInFlightOffByDefault: with MaxInFlight unset the gate queues,
// so concurrent traffic past its size is never shed.
func TestMaxInFlightOffByDefault(t *testing.T) {
	server, srv := admissionFixture(t, 0)
	var wg sync.WaitGroup
	for i := 0; i < 2*defaultMaxInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/api/v1/stats")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if server.shed.Load() != 0 {
		t.Fatalf("Shed = %d with MaxInFlight unset", server.shed.Load())
	}
}

// TestMetricsRuntimeGauges verifies GET /api/v1/metrics reports live
// runtime health: non-zero heap and goroutine gauges, cumulative
// allocation counters that advance between scrapes, and the echoed
// MaxInFlight bound.
func TestMetricsRuntimeGauges(t *testing.T) {
	_, srv := admissionFixture(t, 7)
	scrape := func() ServerMetrics {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m ServerMetrics
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := scrape()
	if m1.MaxInFlight != 7 {
		t.Fatalf("MaxInFlight = %d, want 7", m1.MaxInFlight)
	}
	if m1.Runtime.HeapInuseBytes == 0 {
		t.Fatal("HeapInuseBytes = 0")
	}
	if m1.Runtime.Goroutines <= 0 {
		t.Fatalf("Goroutines = %d", m1.Runtime.Goroutines)
	}
	if m1.Runtime.AllocObjects == 0 || m1.Runtime.AllocBytes == 0 {
		t.Fatalf("cumulative allocation counters empty: %+v", m1.Runtime)
	}
	// Any request allocates something server-side; the deltas a load
	// driver computes must therefore be positive and monotone.
	for i := 0; i < 50; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	m2 := scrape()
	if m2.Runtime.AllocObjects <= m1.Runtime.AllocObjects {
		t.Fatalf("AllocObjects not monotone: %d then %d", m1.Runtime.AllocObjects, m2.Runtime.AllocObjects)
	}
	if m2.Requests <= m1.Requests {
		t.Fatalf("Requests not advancing: %d then %d", m1.Requests, m2.Requests)
	}
}
