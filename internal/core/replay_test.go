package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// TestCheckpointResume runs half a session, checkpoints it through JSON
// (how the jobs API carries checkpoints), resumes into a fresh session, finishes both, and demands
// identical outcomes — the restart-safety property a long-running
// harvester needs. One strategy per utility family: a resumed session
// has no session graph and no warm start, so the family its strategy
// reads is re-derived from the replayed pages — and afterwards every
// family, requested explicitly, must match a rebuild-per-step reference.
func TestCheckpointResume(t *testing.T) {
	f := newFixture(t)
	for _, sel := range []Selector{NewL2QBAL(), NewPT(), NewRT()} {
		t.Run(sel.Name(), func(t *testing.T) {
			// Reference: one uninterrupted session, 4 queries.
			ref := f.session(f.dm)
			refFired := mustRun(t, ref, sel, 4)
			if len(refFired) < 3 {
				t.Fatalf("reference fired only %v", refFired)
			}

			// Interrupted: 2 queries, checkpoint, serialize, deserialize,
			// resume, 2 more queries.
			first := f.session(f.dm)
			mustRun(t, first, sel, 2)
			raw, err := json.Marshal(first.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var cp Checkpoint
			if err := json.Unmarshal(raw, &cp); err != nil {
				t.Fatal(err)
			}

			resumed := f.session(f.dm)
			if err := resumed.Resume(context.Background(), cp); err != nil {
				t.Fatal(err)
			}
			more := mustRun(t, resumed, sel, 2)

			got := append(append([]Query(nil), cp.Fired...), more...)
			if !reflect.DeepEqual(got, refFired) {
				t.Errorf("interrupted run fired %v, uninterrupted %v", got, refFired)
			}
			if len(resumed.Pages()) != len(ref.Pages()) {
				t.Errorf("pages %d vs %d", len(resumed.Pages()), len(ref.Pages()))
			}
			for i := range ref.Pages() {
				if resumed.Pages()[i].ID != ref.Pages()[i].ID {
					t.Fatalf("page %d differs", i)
				}
			}

			// The resumed session's incremental inference against the
			// rebuild path on the uninterrupted one (drift bounded by the
			// default solver tolerance, not the differential suites'
			// tightened one).
			a, err := resumed.Infer(allUtilities)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.InferReference(allUtilities)
			if err != nil {
				t.Fatal(err)
			}
			compareInference(t, 4, a, b, 1e-6)
		})
	}
}

func TestResumeValidation(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustRun(t, s, NewP(), 1)
	cp := s.Snapshot()
	if cp.Aspect != synth.AspResearch || len(cp.Fired) != 1 {
		t.Fatalf("implausible checkpoint %+v", cp)
	}

	// Resume into a used session must fail.
	if err := s.Resume(context.Background(), cp); err == nil {
		t.Error("resume into a used session accepted")
	}
	// Wrong entity must fail.
	wrong := cp
	wrong.Entity++
	if err := f.session(f.dm).Resume(context.Background(), wrong); err == nil {
		t.Error("wrong-entity checkpoint accepted")
	}
	// A tampered page list (simulating a corpus that changed under the
	// checkpoint) must fail loudly, not silently corrupt the context.
	tampered := cp
	tampered.PageIDs = append([]corpus.PageID(nil), cp.PageIDs...)
	tampered.PageIDs[0] = 999999
	err := f.session(f.dm).Resume(context.Background(), tampered)
	if err == nil || !strings.Contains(err.Error(), "corpus changed") {
		t.Errorf("tampered checkpoint: err = %v", err)
	}
}

// failNthRetriever is a network-shaped engine whose nth search fails and
// whose others answer from the wrapped engine.
type failNthRetriever struct {
	Retriever
	n, calls int
	err      error
}

func (r *failNthRetriever) Retrieve(ctx context.Context, dst []search.Result, seed, query []textproc.Token) ([]search.Result, error) {
	r.calls++
	if r.calls == r.n {
		return nil, r.err
	}
	return r.Retriever.Retrieve(ctx, dst, seed, query)
}

// TestResumeSurfacesRetrieverError: a replay whose retriever fails — on
// the seed or on a checkpointed query — returns that failure wrapped. The
// errorless replay swallowed it, came up pages short and blamed the corpus.
func TestResumeSurfacesRetrieverError(t *testing.T) {
	f := newFixture(t)
	live := f.session(f.dm)
	mustRun(t, live, NewL2QBAL(), 2)
	cp := live.Snapshot()
	transportErr := errors.New("transport down")
	for _, tc := range []struct {
		name   string
		failAt int
	}{
		{"seed", 1},
		{"first query", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := f.session(f.dm)
			s.Engine = &failNthRetriever{Retriever: f.engine, n: tc.failAt, err: transportErr}
			err := s.Resume(context.Background(), cp)
			if !errors.Is(err, transportErr) {
				t.Fatalf("err = %v, want the retriever's error wrapped", err)
			}
			if strings.Contains(err.Error(), "changed?") {
				t.Errorf("transport failure misdiagnosed as a replay mismatch: %v", err)
			}
		})
	}
}

// TestResumeCancel: the replay stops with its caller. Every search of the
// blocking retriever hangs until ctx is done, as a dead server would.
func TestResumeCancel(t *testing.T) {
	f := newFixture(t)
	live := f.session(f.dm)
	mustRun(t, live, NewL2QBAL(), 2)
	cp := live.Snapshot()

	s := f.session(f.dm)
	s.Engine = blockingRetriever{Retriever: f.engine}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Resume(ctx, cp) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Resume still replaying 10s after cancellation")
	}
}

// TestMidBootstrapSnapshot is the nastiest checkpoint state: a session
// snapshotted before the seed ingest. The checkpoint must be valid,
// resume as a fresh start (no phantom seed replay), and the resumed
// session must then behave exactly like an untouched one.
func TestMidBootstrapSnapshot(t *testing.T) {
	f := newFixture(t)

	fresh := f.session(f.dm)
	cp := fresh.Snapshot()
	if cp.Booted || len(cp.Fired) != 0 || len(cp.PageIDs) != 0 {
		t.Fatalf("mid-bootstrap snapshot not empty: %+v", cp)
	}

	resumed := f.session(f.dm)
	if err := resumed.Resume(context.Background(), cp); err != nil {
		t.Fatalf("mid-bootstrap resume: %v", err)
	}
	if resumed.Booted() {
		t.Fatal("mid-bootstrap resume booted the session")
	}

	ref := f.session(f.dm)
	want := mustRun(t, ref, NewL2QBAL(), 2)
	got := mustRun(t, resumed, NewL2QBAL(), 2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed-from-unbooted fired %v, fresh fired %v", got, want)
	}
}

// TestSnapshotAnchors: the recorded R_E(Φ)/R*_E(Φ) anchors match the live
// session, replay-verify on Resume, and a corrupted anchor fails loudly.
func TestSnapshotAnchors(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustRun(t, s, NewL2QBAL(), 2)
	cp := s.Snapshot()
	if !cp.Booted {
		t.Fatal("snapshot of a run session not marked booted")
	}
	if cp.RPhi != s.RPhi() {
		t.Fatalf("snapshot RPhi %v, session %v", cp.RPhi, s.RPhi())
	}

	resumed := f.session(f.dm)
	if err := resumed.Resume(context.Background(), cp); err != nil {
		t.Fatalf("anchor-verified resume: %v", err)
	}
	// The replay ingests query by query exactly as the run did, so it
	// lands on the same anchors bit for bit, not just within anchorTol.
	if resumed.rPhi != s.rPhi || resumed.rStarPhi != s.rStarPhi {
		t.Errorf("resumed anchors (%v, %v), uninterrupted (%v, %v)",
			resumed.rPhi, resumed.rStarPhi, s.rPhi, s.rStarPhi)
	}

	bad := cp
	bad.RPhi = cp.RPhi + 0.25
	err := f.session(f.dm).Resume(context.Background(), bad)
	if err == nil || !strings.Contains(err.Error(), "model changed") {
		t.Errorf("tampered anchor: err = %v", err)
	}
}

// TestLegacyCheckpointImpliesBooted: checkpoints written before the
// Booted field existed (fired queries, no flag) must still replay.
func TestLegacyCheckpointImpliesBooted(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustRun(t, s, NewP(), 1)
	cp := s.Snapshot()
	cp.Booted = false // simulate the old wire format
	cp.RPhi, cp.RStarPhi = 0, 0

	resumed := f.session(f.dm)
	if err := resumed.Resume(context.Background(), cp); err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if !resumed.Booted() || len(resumed.Fired()) != 1 {
		t.Error("legacy checkpoint did not replay")
	}
}
