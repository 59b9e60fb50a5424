package webapi

import (
	"context"
	"fmt"
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
				if _, err := client.SearchWithSeedErr(context.Background(), e.SeedTokens(), []string{"safety"}); err != nil {
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
// and serves through each: the semaphore used to be lazily initialized
// with a non-atomic nil check, so under -race this test fails against the
// old code (two Handler calls could each observe s.sem == nil and write
// it) and pins the once-guarded initialization.
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

// TestServerConcurrencyLimit verifies the in-flight request bound: with
// MaxConcurrent=1 and a held request slot, a second request still
// completes once the first finishes (the semaphore drains, no deadlock).
func TestServerConcurrencyLimit(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(g.Corpus, bootLive(g.Corpus), nil)
	s.MaxConcurrent = 1
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/healthz", srv.URL))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait() // must terminate: the semaphore serializes but never wedges
}
