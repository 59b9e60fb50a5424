package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"l2q/internal/search"
	"l2q/internal/textproc"
)

// blockingRetriever is a remote-shaped engine: every search blocks until
// the context is canceled (as a hung HTTP fetch would), like a
// webapi.Client with a dead server.
type blockingRetriever struct {
	Retriever
}

func (r blockingRetriever) Retrieve(ctx context.Context, _ []search.Result, _, _ []textproc.Token) ([]search.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// erroringRetriever fails every search with a fixed error.
type erroringRetriever struct {
	Retriever
	err error
}

func (r erroringRetriever) Retrieve(context.Context, []search.Result, []textproc.Token, []textproc.Token) ([]search.Result, error) {
	return nil, r.err
}

// TestRunCtxMatchesRun: with an in-process engine (which cannot fail),
// RunCtx fires exactly what Run fires.
func TestRunCtxMatchesRun(t *testing.T) {
	f := newFixture(t)
	ref := f.session(f.dm)
	want := ref.Run(NewL2QBAL(), 3)

	s := f.session(f.dm)
	got, err := s.RunCtx(context.Background(), NewL2QBAL(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunCtx fired %v, Run fired %v", got, want)
	}
}

// TestRunCtxCancel is the satellite's point: Session.Run fetched through
// the errorless FetchQuery, so a single-session harvest ignored
// cancellation entirely. RunCtx must return promptly when the context is
// canceled mid-fetch, without recording the aborted query in Φ.
func TestRunCtxCancel(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	s.Engine = blockingRetriever{Retriever: f.engine}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	fired, err := s.RunCtx(ctx, NewL2QBAL(), 5)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("RunCtx returned %v after cancellation", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(fired) != 0 || len(s.Fired()) != 0 {
		t.Errorf("aborted harvest recorded queries: %v", s.Fired())
	}
}

// TestStepCtxErrorKeepsQueryOutOfPhi: a terminal transport failure must
// not poison the context Φ — the query was never answered, so a resumed
// session may retry it.
func TestStepCtxErrorKeepsQueryOutOfPhi(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	s.Bootstrap() // boot through the healthy engine first
	sentinel := errors.New("transport down")
	s.Engine = erroringRetriever{Retriever: f.engine, err: sentinel}

	_, _, err := s.StepCtx(context.Background(), NewL2QBAL())
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	if len(s.Fired()) != 0 {
		t.Errorf("failed fetch recorded in Φ: %v", s.Fired())
	}
	// The errorless adapter under Run/Step turns the same failure into
	// "no results" (an unproductive query).
	if res := s.FetchQuery("anything"); res != nil {
		t.Errorf("FetchQuery returned %d results from a failing retriever", len(res))
	}
}
