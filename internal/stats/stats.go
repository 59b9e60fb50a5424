// Package stats provides the small statistical toolkit behind the
// evaluation's "significantly outperforms" claims: the mean and two
// paired significance tests (exact sign test and paired bootstrap).
// Everything is deterministic given a seed and uses no distribution
// tables — resampling and exact binomial tails only.
package stats

import (
	"math"
	"math/rand/v2"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SignTestResult reports a two-sided exact sign test over paired samples.
type SignTestResult struct {
	// Wins counts pairs where a > b; Losses where a < b; Ties are
	// excluded from the test (standard treatment).
	Wins, Losses, Ties int
	// P is the two-sided exact binomial p-value (1 when no untied pairs).
	P float64
}

// SignTest runs the two-sided exact sign test on paired samples a, b
// (len(a) == len(b) required; extra elements of the longer slice are
// ignored).
func SignTest(a, b []float64) SignTestResult {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var r SignTestResult
	for i := 0; i < n; i++ {
		switch {
		case a[i] > b[i]:
			r.Wins++
		case a[i] < b[i]:
			r.Losses++
		default:
			r.Ties++
		}
	}
	m := r.Wins + r.Losses
	if m == 0 {
		r.P = 1
		return r
	}
	k := r.Wins
	if r.Losses < k {
		k = r.Losses
	}
	// Two-sided: 2·P(X ≤ k) for X ~ Binomial(m, ½), capped at 1.
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += math.Exp(logChoose(m, i) - float64(m)*math.Ln2)
	}
	r.P = math.Min(1, 2*tail)
	return r
}

// PairedBootstrapResult reports a paired bootstrap test of mean difference.
type PairedBootstrapResult struct {
	// MeanDiff is mean(a) − mean(b).
	MeanDiff float64
	// P is the two-sided bootstrap p-value for the null "mean diff = 0".
	P float64
}

// PairedBootstrap resamples the paired differences a−b and reports how
// often the resampled mean difference crosses zero (two-sided).
// Deterministic for a fixed seed; iters defaults to 2000 when ≤ 0.
func PairedBootstrap(a, b []float64, iters int, seed uint64) PairedBootstrapResult {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var out PairedBootstrapResult
	if n == 0 {
		out.P = 1
		return out
	}
	diffs := make([]float64, n)
	for i := 0; i < n; i++ {
		diffs[i] = a[i] - b[i]
	}
	out.MeanDiff = Mean(diffs)
	if n < 2 {
		out.P = 1
		return out
	}
	if iters <= 0 {
		iters = 2000
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	crosses := 0
	for i := 0; i < iters; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += diffs[rng.IntN(n)]
		}
		m := s / float64(n)
		if (out.MeanDiff >= 0 && m <= 0) || (out.MeanDiff <= 0 && m >= 0) {
			crosses++
		}
	}
	// Add-one smoothing keeps the p-value away from an overconfident 0.
	out.P = math.Min(1, 2*float64(crosses+1)/float64(iters+1))
	return out
}

// logChoose is log C(n, k) via lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}
