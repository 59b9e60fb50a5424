package core

import (
	"reflect"
	"testing"

	"l2q/internal/synth"
)

// TestSolverChoiceInvariance verifies that the three fixpoint solvers —
// Jacobi (the paper's), Gauss–Seidel, and residual push — lead to the same
// query selections end to end: the solver is an efficiency knob, never a
// behavior knob. Inference is demand-driven, so the test runs one strategy
// per utility family (P+t and R+t each read a fixpoint; L2QBAL reads the
// collective family, which no solver touches) and then requests every
// family explicitly to compare the vectors themselves.
func TestSolverChoiceInvariance(t *testing.T) {
	f := newFixture(t)

	type outcome struct {
		fired map[string][]Query
		inf   *Inference
	}
	run := func(mutate func(*Config)) outcome {
		cfg := DefaultConfig()
		cfg.Tokenizer = f.g.Tokenizer
		mutate(&cfg)
		dm, err := LearnDomain(cfg, synth.AspResearch, f.g.Corpus, f.domain, f.y, f.rec)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{fired: make(map[string][]Query)}
		for _, sel := range []Selector{NewPT(), NewRT(), NewL2QBAL()} {
			s := NewSession(cfg, f.engine, f.target, synth.AspResearch, f.y, dm, f.rec, 42)
			out.fired[sel.Name()] = s.Run(sel, 3)
			if sel.Name() == "L2QBAL" {
				if out.inf, err = s.Infer(allUtilities); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}

	jacobi := run(func(*Config) {})
	if len(jacobi.fired["L2QBAL"]) == 0 {
		t.Fatal("no queries selected")
	}
	for name, mutate := range map[string]func(*Config){
		"gauss-seidel": func(c *Config) { c.UseGaussSeidel = true },
		"push":         func(c *Config) { c.UsePushSolver = true; c.SolverTol = 1e-12 },
	} {
		got := run(mutate)
		if !reflect.DeepEqual(jacobi.fired, got.fired) {
			t.Errorf("%s selected %v, Jacobi %v", name, got.fired, jacobi.fired)
			continue
		}
		// Same selections ⇒ same session state ⇒ comparable vectors. The
		// fixpoint families agree within the solvers' tolerance; the
		// collective family never sees a solver and agrees exactly.
		if !reflect.DeepEqual(jacobi.inf.Queries, got.inf.Queries) {
			t.Fatalf("%s: candidate pools differ", name)
		}
		compareVec(t, 3, name+" P", got.inf.P, jacobi.inf.P, 1e-6)
		compareVec(t, 3, name+" R", got.inf.R, jacobi.inf.R, 1e-6)
		compareVec(t, 3, name+" CollR", got.inf.CollR, jacobi.inf.CollR, 0)
		compareVec(t, 3, name+" CollRStar", got.inf.CollRStar, jacobi.inf.CollRStar, 0)
		compareVec(t, 3, name+" CollP", got.inf.CollP, jacobi.inf.CollP, 0)
	}
}
