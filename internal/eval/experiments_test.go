package eval

import (
	"context"
	"math"
	"sync"
	"testing"

	"l2q/internal/baselines"
	"l2q/internal/synth"
)

// tinyEnv is a fast environment for experiment-driver integration tests.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	cfg := TestConfig(synth.DomainResearchers)
	cfg.NumEntities = 30
	cfg.PagesPerEntity = 18
	cfg.DomainSample = 10
	cfg.NumTest = 3
	cfg.NumValidation = 2
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestFig10WellFormed(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodRND, MethodP, MethodPQ, MethodPT, MethodL2QP} {
		v, ok := res.Precision[m]
		if !ok || math.IsNaN(v) || v < 0 {
			t.Errorf("precision[%s] = %v (ok=%v)", m, v, ok)
		}
	}
	for _, m := range []Method{MethodRND, MethodR, MethodRQ, MethodRT, MethodL2QR} {
		v, ok := res.Recall[m]
		if !ok || math.IsNaN(v) || v < 0 {
			t.Errorf("recall[%s] = %v (ok=%v)", m, v, ok)
		}
	}
}

func TestFig11WellFormed(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PrecL2QP) != len(Fig11Fractions) || len(res.RecL2QR) != len(Fig11Fractions) {
		t.Fatalf("series lengths: %d, %d", len(res.PrecL2QP), len(res.RecL2QR))
	}
	// Using the full domain sample must beat using none — the core
	// message of Fig. 11.
	if res.RecL2QR[len(res.RecL2QR)-1] <= res.RecL2QR[0] {
		t.Errorf("domain knowledge did not improve recall: %v", res.RecL2QR)
	}
}

func TestFig12And13WellFormed(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.Compare(context.Background(), []Method{MethodL2QBAL, MethodMQ}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.ByQueries) != 3 {
			t.Fatalf("%s has %d points", s.Method, len(s.ByQueries))
		}
		for _, p := range s.ByQueries {
			if math.IsNaN(p.F) || p.F < 0 {
				t.Fatalf("%s has bad F %v", s.Method, p.F)
			}
		}
	}
}

// TestShapeDomainAwarenessHelps is the central qualitative claim of the
// paper at small scale: the full approach must clearly beat the random
// reference point on its own metric.
func TestShapeDomainAwarenessHelps(t *testing.T) {
	env := tinyEnv(t)
	l2qp, err := env.RunMethodAllAspects(context.Background(), MethodL2QP, env.TestIDs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := env.RunMethodAllAspects(context.Background(), MethodRND, env.TestIDs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if l2qp.PerIteration[2].P <= rnd.PerIteration[2].P {
		t.Errorf("L2QP precision %.3f not above RND %.3f",
			l2qp.PerIteration[2].P, rnd.PerIteration[2].P)
	}
}

func TestRunMethodNoDomainSample(t *testing.T) {
	// domainSample = 0 is the Fig. 11 zero point: the domain-aware
	// method must still run (without a model).
	env := tinyEnv(t)
	res, err := env.RunMethod(context.Background(), MethodL2QR, env.G.Aspects[0], env.TestIDs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entities == 0 {
		t.Fatal("no entities evaluated")
	}
}

func TestHRModelCaching(t *testing.T) {
	env := tinyEnv(t)
	a := env.G.Aspects[0]
	m1, err := env.HRModel(a)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := env.HRModel(a)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("HR model not cached")
	}
}

// TestSelectorForHRWithoutModel: HR's selector reads a trained model, so
// its row in the method table needs one and RunMethod trains it (and caches
// it) before the selector is built.
func TestSelectorForHRWithoutModel(t *testing.T) {
	env := tinyEnv(t)
	m, ok := baselines.LookupMethod(string(MethodHR))
	if !ok || !m.NeedsHR {
		t.Fatalf("HR row %+v does not need a model", m)
	}
	a := env.G.Aspects[0]
	if _, err := env.RunMethod(context.Background(), MethodHR, a, env.TestIDs, 1, -1); err != nil {
		t.Fatal(err)
	}
	env.models.mu.Lock()
	train := env.models.hrs[a]
	env.models.mu.Unlock()
	if train == nil {
		t.Fatal("HR ran without a trained model")
	}
}

// TestHRModelTrainsOnce holds Env.HRModel to one training per aspect:
// eight goroutines asking a fresh Env at once all get the same model.
func TestHRModelTrainsOnce(t *testing.T) {
	env := tinyEnv(t)
	a := env.G.Aspects[0]
	const n = 8
	got := make([]*baselines.HRModel, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m, err := env.HRModel(a)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}()
	}
	close(start)
	wg.Wait()
	for i, m := range got {
		if m == nil || m != got[0] {
			t.Fatalf("goroutine %d got HR model %p, goroutine 0 got %p: trained more than once", i, m, got[0])
		}
	}
}

func TestPRFArithmetic(t *testing.T) {
	a := PRF{P: 1, R: 2, F: 3}
	a.add(PRF{P: 1, R: 2, F: 3})
	a.scale(2)
	if a.P != 1 || a.R != 2 || a.F != 3 {
		t.Fatalf("PRF arithmetic wrong: %+v", a)
	}
	z := PRF{P: 5}
	z.scale(0) // must not divide by zero
	if z.P != 5 {
		t.Fatal("scale(0) must be a no-op")
	}
}

func TestHashStringStable(t *testing.T) {
	if hashString("L2QP") != hashString("L2QP") {
		t.Fatal("hash not deterministic")
	}
	if hashString("L2QP") == hashString("L2QR") {
		t.Fatal("hash collision on method names")
	}
}

func TestFig9CRFExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("trains one CRF per aspect")
	}
	env := tinyEnv(t)
	rows := env.Fig9CRF()
	if len(rows) != len(env.G.Aspects) {
		t.Fatalf("%d rows, want %d", len(rows), len(env.G.Aspects))
	}
	for _, r := range rows {
		if r.AccuracyNB < 0.8 {
			t.Errorf("%s: NB accuracy %.3f implausible", r.Aspect, r.AccuracyNB)
		}
		if r.AccuracyCRF < 0.8 {
			t.Errorf("%s: CRF accuracy %.3f implausible", r.Aspect, r.AccuracyCRF)
		}
	}
}
