package webapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"l2q/internal/synth"
)

// TestConcurrentClients hammers the server with parallel searches and page
// downloads from multiple clients; run under -race this validates the
// server's and client's shared state (caches, counters, fetch table).
func TestConcurrentClients(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler())
	defer srv.Close()

	const clients = 4
	const opsPerClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < opsPerClient; i++ {
				e := g.Corpus.Entities[(c*opsPerClient+i)%g.Corpus.NumEntities()]
				if _, err := client.Retrieve(context.Background(), nil, e.SeedTokens(), []string{"safety"}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandlerConcurrentInit builds handlers from many goroutines at once
// and serves through each: the admission gate used to be lazily
// initialized with a non-atomic nil check, so under -race this test fails
// against that code (two Handler calls could each observe a nil gate and
// write it) and pins the once-guarded initialization.
func TestHandlerConcurrentInit(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(g.Corpus, bootLive(g.Corpus), nil)

	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.Handler()
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("healthz = %d", rec.Code)
			}
		}()
	}
	wg.Wait()
}

// TestServerConcurrencyLimit pins the default admission gate: with
// MaxInFlight unset and every slot held (in-package, so the test is a
// schedule, not a race), a request waits instead of being shed, and
// finishes once a slot frees; a waiter whose caller leaves gets the 503
// envelope; /healthz passes a full gate.
func TestServerConcurrencyLimit(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(g.Corpus, bootLive(g.Corpus), nil)
	h := s.Handler()
	gate := s.inflightSem()
	if cap(gate) != defaultMaxInFlight {
		t.Fatalf("default gate holds %d, want %d", cap(gate), defaultMaxInFlight)
	}
	for i := 0; i < cap(gate); i++ {
		gate <- struct{}{}
	}

	serve := func(ctx context.Context, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodGet, path, nil))
		return rec
	}
	if rec := serve(context.Background(), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz at a full gate = %d, want 200", rec.Code)
	}

	// A waiter whose caller leaves: the request is already queued when its
	// ctx ends, because the gate is full and nothing frees it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := serve(ctx, "/api/v1/stats")
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusServiceUnavailable || err != nil || env.Error.Code != "unavailable" {
		t.Fatalf("canceled waiter = %d %s, want the 503 envelope", rec.Code, rec.Body.Bytes())
	}

	// A waiter that stays: it is served once one slot frees, never shed.
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serve(context.Background(), "/api/v1/stats") }()
	<-gate
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("queued request = %d %s, want 200 once a slot freed", rec.Code, rec.Body.Bytes())
	}
	if s.shed.Load() != 0 {
		t.Errorf("Shed = %d with MaxInFlight unset", s.shed.Load())
	}
}
