package eval

import (
	"context"
	"math"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvSplits(t *testing.T) {
	env := testEnv(t)
	n := env.G.Corpus.NumEntities()
	if len(env.DomainIDs) != n/2 {
		t.Fatalf("domain half = %d, want %d", len(env.DomainIDs), n/2)
	}
	if len(env.TestIDs) == 0 || len(env.ValIDs) == 0 {
		t.Fatal("empty splits")
	}
	// Splits must be disjoint.
	seen := map[corpus.EntityID]string{}
	for _, id := range env.DomainIDs {
		seen[id] = "domain"
	}
	for _, id := range env.ValIDs {
		if role, dup := seen[id]; dup {
			t.Fatalf("entity %d in both %s and validation", id, role)
		}
		seen[id] = "validation"
	}
	for _, id := range env.TestIDs {
		if role, dup := seen[id]; dup {
			t.Fatalf("entity %d in both %s and test", id, role)
		}
	}
}

func TestMeasureAndNormalize(t *testing.T) {
	env := testEnv(t)
	entity := env.G.Corpus.Entity(env.TestIDs[0])
	aspect := env.G.Aspects[0]
	rel := env.relevantUniverse(entity, aspect)
	if len(rel) == 0 {
		t.Fatal("no relevant pages")
	}
	pages := env.G.Corpus.PagesOf(entity.ID)
	pr := measure(pages, rel)
	wantRecall := 1.0
	if math.Abs(pr.Recall-wantRecall) > 1e-9 {
		t.Fatalf("all pages retrieved but recall = %f", pr.Recall)
	}
	wantPrec := float64(len(rel)) / float64(len(pages))
	if math.Abs(pr.Precision-wantPrec) > 1e-9 {
		t.Fatalf("precision = %f, want %f", pr.Precision, wantPrec)
	}

	n := normalize(PR{Precision: 0.4, Recall: 0.5}, PR{Precision: 0.8, Recall: 1.0})
	if math.Abs(n.P-0.5) > 1e-9 || math.Abs(n.R-0.5) > 1e-9 {
		t.Fatalf("normalize = %+v", n)
	}
	z := normalize(PR{Precision: 0.4}, PR{})
	if z.P != 0 || z.R != 0 || z.F != 0 {
		t.Fatalf("zero ideal should normalize to zero, got %+v", z)
	}
}

func TestF1(t *testing.T) {
	if f := (PR{Precision: 0.5, Recall: 0.5}).F1(); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("F1 = %f", f)
	}
	if f := (PR{}).F1(); f != 0 {
		t.Fatalf("empty F1 = %f", f)
	}
}

func TestIdealRunMonotone(t *testing.T) {
	env := testEnv(t)
	entity := env.G.Corpus.Entity(env.TestIDs[0])
	ideal := env.idealRun(entity, env.G.Aspects[0], 5)
	if len(ideal) != 5 {
		t.Fatalf("ideal has %d points", len(ideal))
	}
	for i := 1; i < len(ideal); i++ {
		if ideal[i].Recall < ideal[i-1].Recall-1e-12 {
			t.Fatal("ideal recall not monotone")
		}
	}
	for _, pr := range ideal {
		if pr.Precision < 0 || pr.Precision > 1 || pr.Recall < 0 || pr.Recall > 1 {
			t.Fatalf("ideal out of range: %+v", pr)
		}
	}
}

func TestIdealDominatesMethods(t *testing.T) {
	// The ideal is an upper bound: every method's normalized metrics
	// should be ≤ 1 (tiny numerical slack allowed).
	env := testEnv(t)
	for _, m := range []Method{MethodL2QBAL, MethodMQ} {
		r, err := e2aspects(env, m)
		if err != nil {
			t.Fatal(err)
		}
		for it, prf := range r.PerIteration {
			if prf.P > 1+1e-9 || prf.R > 1+1e-9 || prf.F > 1+1e-9 {
				t.Fatalf("%s beats the ideal at iteration %d: %+v", m, it+1, prf)
			}
		}
	}
}

func e2aspects(env *Env, m Method) (RunResult, error) {
	return env.RunMethod(context.Background(), m, env.G.Aspects[0], env.TestIDs, 3, -1)
}

func TestRunMethodAllMethods(t *testing.T) {
	env := testEnv(t)
	methods := []Method{
		MethodRND, MethodP, MethodR, MethodPQ, MethodRQ, MethodPT, MethodRT,
		MethodL2QP, MethodL2QR, MethodL2QBAL, MethodLM, MethodAQ, MethodHR, MethodMQ,
	}
	aspect := env.G.Aspects[3] // RESEARCH-like: most frequent
	for _, m := range methods {
		r, err := env.RunMethod(context.Background(), m, aspect, env.TestIDs, 2, -1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.Entities == 0 {
			t.Fatalf("%s evaluated no entities", m)
		}
		if len(r.PerIteration) != 2 {
			t.Fatalf("%s has %d iterations", m, len(r.PerIteration))
		}
		for _, prf := range r.PerIteration {
			if math.IsNaN(prf.P) || math.IsNaN(prf.R) || math.IsNaN(prf.F) {
				t.Fatalf("%s produced NaN", m)
			}
		}
	}
}

func TestRunMethodUnknown(t *testing.T) {
	env := testEnv(t)
	if _, err := env.RunMethod(context.Background(), "NOPE", env.G.Aspects[0], env.TestIDs, 2, -1); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestFig9Rows(t *testing.T) {
	env := testEnv(t)
	rows := env.Fig9()
	if len(rows) != len(env.G.Aspects) {
		t.Fatalf("%d rows, want %d", len(rows), len(env.G.Aspects))
	}
	for _, r := range rows {
		if r.Frequency <= 0 {
			t.Errorf("aspect %s has zero frequency", r.Aspect)
		}
		if r.Accuracy < 0.8 {
			t.Errorf("aspect %s accuracy %.3f below paper's floor", r.Aspect, r.Accuracy)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	env := testEnv(t)
	res, err := env.Fig14(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodL2QP, MethodL2QR, MethodL2QBAL} {
		if _, ok := res.SelectionSec[m]; !ok {
			t.Fatalf("missing selection time for %s", m)
		}
	}
	if res.FetchSecPerQuery <= res.SelectionSec[MethodL2QBAL] {
		t.Fatalf("fetch (%.2fs) should dominate selection (%.4fs) as in Fig. 14",
			res.FetchSecPerQuery, res.SelectionSec[MethodL2QBAL])
	}
}

func TestDomainModelCaching(t *testing.T) {
	env := testEnv(t)
	a := env.G.Aspects[0]
	dm1, err := env.DomainModel(a, -1)
	if err != nil {
		t.Fatal(err)
	}
	dm2, err := env.DomainModel(a, -1)
	if err != nil {
		t.Fatal(err)
	}
	if dm1 != dm2 {
		t.Fatal("domain model not cached")
	}
	dm3, err := env.DomainModel(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dm3 == dm1 {
		t.Fatal("different sample size must build a different model")
	}
}

func TestCrossValidateR0(t *testing.T) {
	env := testEnv(t)
	r0, scores, err := env.CrossValidateR0(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(R0Grid) {
		t.Fatalf("scores for %d candidates, want %d", len(scores), len(R0Grid))
	}
	found := false
	for _, c := range R0Grid {
		if c == r0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen r0 %f not on the grid", r0)
	}
}
