package store

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// ckptFixture is a minimal harvesting environment for one domain.
type ckptFixture struct {
	cfg    core.Config
	engine *search.Engine
	rec    types.Recognizer
	y      func(*corpus.Page) bool
	dm     *core.DomainModel
	target *corpus.Entity
	aspect corpus.Aspect
}

func newCkptFixture(t *testing.T, domain corpus.Domain, aspect corpus.Aspect) *ckptFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var domainIDs []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domainIDs = append(domainIDs, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domainIDs, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &ckptFixture{
		cfg: cfg, engine: engine, rec: rec, y: y, dm: dm,
		target: g.Corpus.Entities[g.Corpus.NumEntities()-1],
		aspect: aspect,
	}
}

func (f *ckptFixture) session() *core.Session {
	return core.NewSession(f.cfg, f.engine, f.target, f.aspect, f.y, f.dm, f.rec, 42)
}

// roundTrip pushes checkpoints through the binary codec.
func roundTrip(t *testing.T, cps []core.Checkpoint) []core.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCheckpoints(&buf, cps); err != nil {
		t.Fatal(err)
	}
	out, err := LoadCheckpoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointRoundTripResumes is the satellite's core: snapshot →
// store encode/decode → resume must reproduce the original session's
// next selection exactly, across both domains — and the mid-bootstrap
// snapshot (the nastiest state) must survive the same path.
func TestCheckpointRoundTripResumes(t *testing.T) {
	cases := []struct {
		domain corpus.Domain
		aspect corpus.Aspect
	}{
		{synth.DomainResearchers, synth.AspResearch},
		{synth.DomainCars, synth.AspSafety},
	}
	for _, tc := range cases {
		t.Run(string(tc.domain), func(t *testing.T) {
			f := newCkptFixture(t, tc.domain, tc.aspect)

			// Reference: uninterrupted run.
			ref := f.session()
			want := mustRun(t, ref, core.NewL2QBAL(), 4)
			if len(want) < 3 {
				t.Fatalf("reference fired only %v", want)
			}

			// Interrupted at 2 queries, through the binary codec.
			first := f.session()
			mustRun(t, first, core.NewL2QBAL(), 2)
			cps := roundTrip(t, []core.Checkpoint{first.Snapshot()})
			if len(cps) != 1 {
				t.Fatalf("round trip returned %d checkpoints", len(cps))
			}
			if !reflect.DeepEqual(cps[0], first.Snapshot()) {
				t.Fatalf("codec changed the checkpoint:\n%+v\n%+v", cps[0], first.Snapshot())
			}

			resumed := f.session()
			if err := resumed.Resume(context.Background(), cps[0]); err != nil {
				t.Fatal(err)
			}
			more := mustRun(t, resumed, core.NewL2QBAL(), 2)
			got := append(append([]core.Query(nil), cps[0].Fired...), more...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed run fired %v, uninterrupted %v", got, want)
			}

			// Mid-bootstrap snapshot: encode, decode, resume, and the
			// session must still match a fresh run exactly.
			unbooted := roundTrip(t, []core.Checkpoint{f.session().Snapshot()})
			virgin := f.session()
			if err := virgin.Resume(context.Background(), unbooted[0]); err != nil {
				t.Fatal(err)
			}
			if virgin.Booted() {
				t.Fatal("mid-bootstrap checkpoint booted the session")
			}
			fresh := f.session()
			if a, b := mustRun(t, virgin, core.NewL2QBAL(), 2), mustRun(t, fresh, core.NewL2QBAL(), 2); !reflect.DeepEqual(a, b) {
				t.Errorf("mid-bootstrap resume fired %v, fresh %v", a, b)
			}
		})
	}
}

// TestCheckpointFileRoundTrip: the atomic file variants, with several
// checkpoints per file (the scheduler persists whole batches).
func TestCheckpointFileRoundTrip(t *testing.T) {
	f := newCkptFixture(t, synth.DomainResearchers, synth.AspResearch)
	s1, s2 := f.session(), f.session()
	mustRun(t, s1, core.NewL2QBAL(), 1)
	mustRun(t, s2, core.NewL2QBAL(), 3)
	want := []core.Checkpoint{s1.Snapshot(), s2.Snapshot(), f.session().Snapshot()}

	path := filepath.Join(t.TempDir(), "harvest.ckpt")
	if err := SaveCheckpointsFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("file round trip mismatch:\n%+v\n%+v", got, want)
	}
}

// mustRun is RunCtx over an engine that cannot fail: any error fails the
// test.
func mustRun(t testing.TB, s *core.Session, sel core.Selector, n int) []core.Query {
	t.Helper()
	fired, err := s.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}
