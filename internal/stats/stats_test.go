package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("mean = %v", m)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty input should have mean 0")
	}
	if Mean([]float64{3}) != 3 {
		t.Error("singleton mean should be the value")
	}
}

func TestSignTestExactValues(t *testing.T) {
	// 6 wins, 0 losses: p = 2·(1/2)⁶ = 0.03125.
	a := []float64{1, 1, 1, 1, 1, 1}
	b := []float64{0, 0, 0, 0, 0, 0}
	r := SignTest(a, b)
	if r.Wins != 6 || r.Losses != 0 || r.Ties != 0 {
		t.Fatalf("counts %+v", r)
	}
	if !almost(r.P, 0.03125, 1e-12) {
		t.Errorf("p = %v, want 0.03125", r.P)
	}
}

func TestSignTestBalanced(t *testing.T) {
	a := []float64{1, 0, 1, 0}
	b := []float64{0, 1, 0, 1}
	r := SignTest(a, b)
	if r.Wins != 2 || r.Losses != 2 {
		t.Fatalf("counts %+v", r)
	}
	// 2-vs-2 is the most balanced outcome: p must be 1 (capped).
	if r.P != 1 {
		t.Errorf("p = %v, want 1", r.P)
	}
}

func TestSignTestTiesExcluded(t *testing.T) {
	a := []float64{1, 2, 3, 3, 3}
	b := []float64{0, 1, 3, 3, 3}
	r := SignTest(a, b)
	if r.Wins != 2 || r.Losses != 0 || r.Ties != 3 {
		t.Fatalf("counts %+v", r)
	}
	if !almost(r.P, 0.5, 1e-12) { // 2·(1/2)²
		t.Errorf("p = %v, want 0.5", r.P)
	}
}

func TestSignTestAllTies(t *testing.T) {
	r := SignTest([]float64{1, 1}, []float64{1, 1})
	if r.P != 1 {
		t.Errorf("all-ties p = %v", r.P)
	}
}

func TestPairedBootstrapDetectsDifference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		base := rng.NormFloat64()
		a[i] = base + 1.0 // consistently one higher
		b[i] = base + 0.1*rng.NormFloat64()
	}
	r := PairedBootstrap(a, b, 2000, 7)
	if r.MeanDiff < 0.5 {
		t.Fatalf("mean diff = %v", r.MeanDiff)
	}
	if r.P > 0.01 {
		t.Errorf("clear difference got p = %v", r.P)
	}
}

func TestPairedBootstrapNull(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	r := PairedBootstrap(a, b, 2000, 9)
	if r.P < 0.05 {
		t.Errorf("null comparison got p = %v (diff %v)", r.P, r.MeanDiff)
	}
}

func TestPairedBootstrapDegenerate(t *testing.T) {
	if r := PairedBootstrap(nil, nil, 100, 1); r.P != 1 {
		t.Errorf("empty p = %v", r.P)
	}
	if r := PairedBootstrap([]float64{1}, []float64{0}, 100, 1); r.P != 1 {
		t.Errorf("n=1 p = %v", r.P)
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := logChoose(c.n, c.k); !almost(got, c.want, 1e-9) {
			t.Errorf("logChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(logChoose(3, 5), -1) {
		t.Error("k > n should be -inf")
	}
}
