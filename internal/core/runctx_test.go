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
// webapi.Client with a dead server. A non-nil entered hears of every
// search as it starts to block.
type blockingRetriever struct {
	Retriever
	entered chan<- struct{}
}

func (r blockingRetriever) Retrieve(ctx context.Context, _ []search.Result, _, _ []textproc.Token) ([]search.Result, error) {
	if r.entered != nil {
		select {
		case r.entered <- struct{}{}:
		default:
		}
	}
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

// TestRunCtxMatchesRun: RunCtx fires exactly what a hand-driven
// BootstrapCtx + StepCtx loop fires, and gathers the same pages.
func TestRunCtxMatchesRun(t *testing.T) {
	f := newFixture(t)
	ref := f.session(f.dm)
	mustBoot(t, ref)
	var want []Query
	for i := 0; i < 3; i++ {
		q, ok := mustStep(t, ref, NewL2QBAL())
		if !ok {
			break
		}
		want = append(want, q)
	}

	s := f.session(f.dm)
	got, err := s.RunCtx(context.Background(), NewL2QBAL(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunCtx fired %v, the StepCtx loop fired %v", got, want)
	}
	if !reflect.DeepEqual(s.Pages(), ref.Pages()) {
		t.Errorf("RunCtx gathered %d pages, the StepCtx loop %d", len(s.Pages()), len(ref.Pages()))
	}
}

// TestRunCtxCancel: RunCtx returns promptly when the context is canceled
// mid-fetch, without recording the aborted query in Φ. The cancel fires
// once the retriever is blocked inside the fetch — a schedule, not a
// sleep.
func TestRunCtxCancel(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	entered := make(chan struct{}, 1)
	s.Engine = blockingRetriever{Retriever: f.engine, entered: entered}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-entered:
			cancel()
		case <-ctx.Done():
		}
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
	mustBoot(t, s) // boot through the healthy engine first
	sentinel := errors.New("transport down")
	s.Engine = erroringRetriever{Retriever: f.engine, err: sentinel}

	_, _, err := s.StepCtx(context.Background(), NewL2QBAL())
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	if len(s.Fired()) != 0 {
		t.Errorf("failed fetch recorded in Φ: %v", s.Fired())
	}
}
