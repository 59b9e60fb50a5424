package webapi

import (
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// FaultInjector wraps an http.Handler with configurable transport faults —
// the test double for everything the real Web does to a harvester: 500s,
// latency, and connections that die mid-transfer. Mount it in front of a
// Server's Handler (e.g. via httptest.NewServer) and point a Client at it;
// the differential fault-tolerance tests hold a harvest through the
// injector to byte-identical results with the in-process run.
//
// Faults are drawn per request from a seeded RNG, so a fixture is
// reproducible for a fixed request sequence. FaultInjector is safe for
// concurrent use.
type FaultInjector struct {
	// Next is the wrapped handler.
	Next http.Handler
	// ErrorRate is the probability of answering 500 instead of serving.
	ErrorRate float64
	// TruncateRate is the probability of serving a response that dies
	// mid-body: the injector declares the full Content-Length but writes
	// only half, so the connection is severed and the client's body read
	// fails with an unexpected EOF — the classic truncated transfer.
	TruncateRate float64
	// Seed makes the fault sequence reproducible (0 seeds from 1).
	Seed uint64

	// latency is the per-request added delay in nanoseconds (atomic so
	// tests can dial it up after a fault-free warmup).
	latency atomic.Int64

	passed    atomic.Int64
	injected5 atomic.Int64
	truncated atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// SetLatency sets the added per-request delay (also applied to faulted
// responses). Safe to change while serving.
func (f *FaultInjector) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// Counts reports how many requests passed through untouched and how many
// were answered with an injected 500 or a truncated body.
func (f *FaultInjector) Counts() (passed, errors, truncated int64) {
	return f.passed.Load(), f.injected5.Load(), f.truncated.Load()
}

// roll draws one uniform variate from the seeded stream.
func (f *FaultInjector) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		seed := f.Seed
		if seed == 0 {
			seed = 1
		}
		f.rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	}
	return f.rng.Float64()
}

func (f *FaultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(f.latency.Load()); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
	p := f.roll()
	switch {
	case p < f.ErrorRate:
		f.injected5.Add(1)
		//l2qvet:ignore errenvelope the injector deliberately emits a NON-envelope failure: clients must survive hostile bodies
		http.Error(w, "injected fault", http.StatusInternalServerError)
	case p < f.ErrorRate+f.TruncateRate:
		f.truncated.Add(1)
		f.truncate(w, r)
	default:
		f.passed.Add(1)
		f.Next.ServeHTTP(w, r)
	}
}

// truncate serves the real response but cuts the body in half under a
// full-length Content-Length declaration, which makes net/http close the
// connection without finishing the response — the client sees a read
// error, not a short-but-valid body.
func (f *FaultInjector) truncate(w http.ResponseWriter, r *http.Request) {
	rec := &captureWriter{header: make(http.Header)}
	f.Next.ServeHTTP(rec, r)
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	body := rec.body
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(body[:len(body)/2])
	// Returning with len(body)/2 < Content-Length written forces net/http
	// to sever the connection: the truncation is a wire fault, invisible
	// to naive clients until the read fails.
}

// captureWriter buffers a handler's response for the truncating replay.
type captureWriter struct {
	header http.Header
	status int
	body   []byte
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body = append(c.body, p...)
	return len(p), nil
}
