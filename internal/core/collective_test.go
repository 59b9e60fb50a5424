package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// Tests for the probability-scale collective-utility machinery (§V),
// exercising the calibration invariants documented in DESIGN.md §5.

func TestSmoothed(t *testing.T) {
	tests := []struct {
		obs   float64
		n     int
		prior float64
		m     float64
		want  float64
	}{
		{1, 4, 0, 4, 0.5},     // observed diluted by empty prior
		{0, 0, 0.8, 3, 0.8},   // pure prior when nothing observed
		{0.5, 2, 0.5, 2, 0.5}, // agreement stays put
		{0, 0, 0, 0, 0},       // fully degenerate
	}
	for _, tc := range tests {
		got := smoothed(tc.obs, tc.n, tc.prior, tc.m)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("smoothed(%v,%d,%v,%v) = %v, want %v",
				tc.obs, tc.n, tc.prior, tc.m, got, tc.want)
		}
	}
}

func TestCapObs(t *testing.T) {
	if capObs(3) != 3 || capObs(maxObservations) != maxObservations {
		t.Fatal("capObs mangles small values")
	}
	if capObs(1000) != maxObservations {
		t.Fatal("capObs does not cap")
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 || clamp01(0.25) != 0.25 {
		t.Fatal("clamp01 wrong")
	}
}

// TestCollectiveRedundancyOrdering: of two candidates with identical domain
// priors, the one already covered by the gathered relevant pages must score
// below the uncovered one on collective recall once the context holds
// meaningful coverage — the essence of §V's Fig. 7 example.
func TestCollectiveRedundancyOrdering(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	// Advance the context so R(Φ) is non-trivial.
	for i := 0; i < 2; i++ {
		if _, ok := mustStep(t, s, NewL2QR()); !ok {
			t.Fatal("step failed")
		}
	}
	inf, err := s.Infer(InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilCollective})
	if err != nil {
		t.Fatal(err)
	}
	// Find a pair of candidates with (near-)equal individual recall
	// estimates but maximally different observed coverage; collective
	// recall must prefer the novel one relative to their individual gap.
	relPages := 0
	for _, p := range s.Pages() {
		if s.Y(p) {
			relPages++
		}
	}
	if relPages == 0 {
		t.Skip("no relevant pages gathered in this fixture")
	}
	// Weaker but robust check: collective recall must not be constant
	// (the redundancy term must differentiate candidates).
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range inf.CollR {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if maxV-minV < 1e-9 {
		t.Fatal("collective recall is flat across candidates")
	}
}

// TestCollectiveFloor: every candidate's collective recall must at least
// preserve the context's coverage discounted by its own redundancy —
// i.e. CollR ≥ R(Φ)·(1−R^(Ỹ)(q)) ≥ 0 up to the backfill bonus.
func TestCollectiveFloor(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	inf, err := s.Infer(InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilCollective})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inf.Queries {
		if inf.CollR[i] < -1e-9 {
			t.Fatalf("negative collective recall for %q: %v", inf.Queries[i], inf.CollR[i])
		}
		if inf.CollRStar[i] < -1e-9 {
			t.Fatalf("negative collective Y*-recall for %q", inf.Queries[i])
		}
	}
}

// TestUseWalkRecallRegRuns: the switch replaces the template recall
// regularization of Eq. 22, so it is visible exactly where R_E is read —
// R+t's inference — and must move at least one candidate's recall there.
func TestUseWalkRecallRegRuns(t *testing.T) {
	f := newFixture(t)
	recall := func(walk bool) *Inference {
		cfg := DefaultConfig()
		cfg.Tokenizer = f.g.Tokenizer
		cfg.UseWalkRecallReg = walk
		s := NewSession(cfg, f.engine, f.target, "RESEARCH", f.y, f.dm, f.rec, 3)
		mustBoot(t, s)
		inf, err := s.Infer(InferOptions{UseTemplates: true, Utilities: UtilRecall})
		if err != nil {
			t.Fatal(err)
		}
		return inf
	}
	counting, walk := recall(false), recall(true)
	if !reflect.DeepEqual(counting.Queries, walk.Queries) || len(walk.Queries) == 0 {
		t.Fatalf("candidate pools differ or are empty: %d vs %d", len(counting.Queries), len(walk.Queries))
	}
	if reflect.DeepEqual(counting.R, walk.R) {
		t.Fatal("UseWalkRecallReg left every candidate's R_E unchanged")
	}
}

func TestContextStateMonotone(t *testing.T) {
	// R(Φ) and R*(Φ) are derived from gathered pages, which only grow.
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	prevR := s.RPhi()
	for i := 0; i < 4; i++ {
		if _, ok := mustStep(t, s, NewL2QBAL()); !ok {
			break
		}
		if s.RPhi() < prevR-1e-12 {
			t.Fatalf("R(Φ) decreased at step %d: %f → %f", i, prevR, s.RPhi())
		}
		prevR = s.RPhi()
	}
}

// TestSessionErrorf: an entity name comes from outside the program (POST
// /api/v1/ingest registers it verbatim), so format verbs in it stay
// literal in a session error and the wrapped transport error stays
// reachable.
func TestSessionErrorf(t *testing.T) {
	f := newFixture(t)
	s := f.session(nil)
	e := *f.target
	e.Name = "100%d %w"
	s.Entity = &e
	sentinel := errors.New("transport down")
	s.Engine = erroringRetriever{Retriever: f.engine, err: sentinel}
	err := s.Resume(context.Background(), Checkpoint{Entity: e.ID, Aspect: s.Aspect, Booted: true})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	if want := "l2q[100%d %w/" + string(s.Aspect) + "]: replay seed query: transport down"; err.Error() != want {
		t.Errorf("err = %q, want %q", err.Error(), want)
	}
}

func TestDomainModelCountingStats(t *testing.T) {
	f := newFixture(t)
	if f.dm.RelFraction <= 0 || f.dm.RelFraction >= 1 {
		t.Fatalf("RelFraction = %v", f.dm.RelFraction)
	}
	if len(f.dm.QueryRCount) == 0 {
		t.Fatal("no query-level counting priors")
	}
	for q, v := range f.dm.QueryRCount {
		if v < 0 || v > 1 {
			t.Fatalf("QueryRCount[%q] = %v outside [0,1]", q, v)
		}
		if vs := f.dm.QueryRStarCount[q]; vs < 0 || vs > 1 {
			t.Fatalf("QueryRStarCount[%q] = %v outside [0,1]", q, vs)
		}
	}
	for k, v := range f.dm.TemplateRCount {
		if v < 0 || v > 1 {
			t.Fatalf("TemplateRCount[%q] = %v outside [0,1]", k, v)
		}
	}
}
