package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailQuantile is the sample-count rule for tails: the highest of p99,
// p95 and p90 that still has at least ten samples beyond it; 0.5 when
// even p90 has not (fewer than 100 samples).
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

// summary is what one timing metric reports: median, the tail the sample
// count supports, and the count itself.
type summary struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return summary{N: len(s), P50: percentile(s, 0.5), Tail: percentile(s, q), TailQ: q}
}

// median of an unsorted slice (compare's per-metric statistic).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// midmean is the mean of the middle half of v (the interquartile mean):
// the statistic over a window's one-second slices. Like the median it
// ignores a few slices that hold a garbage-collection cycle; unlike the
// median it moves smoothly when the slices sit at two levels — on
// search_live_ingest an operation costs more with every segment the
// engine holds, a sawtooth with steps inside the window, and the median
// of that jumps from one level to the other with a slice's worth of
// timing. 0 for an empty slice.
func midmean(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// Weights of a window [n/4, 3n/4) laid over the sorted values, so
	// that every n gives the same statistic.
	lo, hi := float64(n)/4, 3*float64(n)/4
	var sum, w float64
	for i, x := range s {
		a, b := math.Max(float64(i), lo), math.Min(float64(i+1), hi)
		if b > a {
			sum += x * (b - a)
			w += b - a
		}
	}
	return sum / w
}

// iqrShare is the run-to-run spread the acceptance rule uses: the
// distance between the first and third quartile as a share of the median,
// with the quartiles of Python's statistics.quantiles(v, n=4) (exclusive
// method). 0 for fewer than two values or a zero median.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((quart(3) - quart(1)) / med)
}
