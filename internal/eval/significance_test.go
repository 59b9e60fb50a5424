package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"l2q/internal/synth"
)

func TestCompareRequiresAlignedLists(t *testing.T) {
	a := RunResult{Method: MethodL2QBAL, PerEntityF: []float64{0.5, 0.6}}
	b := RunResult{Method: MethodHR, PerEntityF: []float64{0.4}}
	if _, err := Compare(a, b); err == nil {
		t.Error("misaligned lists accepted")
	}
}

func TestCompareDropsNaNPairwise(t *testing.T) {
	nan := math.NaN()
	a := RunResult{Method: MethodL2QBAL, PerEntityF: []float64{0.9, nan, 0.8, 0.7}}
	b := RunResult{Method: MethodHR, PerEntityF: []float64{0.5, 0.5, nan, 0.6}}
	s, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pairs != 2 {
		t.Fatalf("pairs = %d, want 2", s.Pairs)
	}
	if s.Sign.Wins != 2 || s.Sign.Losses != 0 {
		t.Errorf("sign counts %+v", s.Sign)
	}
	if s.MeanDiff <= 0 {
		t.Errorf("mean diff = %v", s.MeanDiff)
	}
	if !strings.Contains(s.String(), "L2QBAL vs HR") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestCompareAllNaN(t *testing.T) {
	nan := math.NaN()
	a := RunResult{Method: MethodP, PerEntityF: []float64{nan}}
	b := RunResult{Method: MethodR, PerEntityF: []float64{nan}}
	if _, err := Compare(a, b); err == nil {
		t.Error("no common entities accepted")
	}
}

// TestSignificanceEndToEnd runs two real methods on a small environment
// and checks the comparison is well-formed (the better method should win
// the sign test direction on this corpus).
func TestSignificanceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full evaluations")
	}
	cfg := TestConfig(synth.DomainResearchers)
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aspect := synth.AspResearch
	ids := env.TestIDs
	bal, err := env.RunMethod(context.Background(), MethodL2QBAL, aspect, ids, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := env.RunMethod(context.Background(), MethodRND, aspect, ids, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compare(bal, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pairs == 0 {
		t.Fatal("no pairs")
	}
	if s.MeanDiff <= 0 {
		t.Errorf("L2QBAL did not beat RND: %s", s)
	}
	if s.Sign.Wins <= s.Sign.Losses {
		t.Errorf("sign direction wrong: %s", s)
	}
	t.Logf("%s", s)
}
