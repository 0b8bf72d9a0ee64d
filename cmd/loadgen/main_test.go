package main

import "testing"

// TestPercentileNearestRank: percentile is the nearest-rank estimator, the
// sample at rank ⌈p·n⌉ of the sorted input.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile sorts
		}
		return out
	}
	for _, c := range []struct {
		name    string
		samples []float64
		p, want float64
	}{
		{"empty", nil, 0.5, 0},
		{"one sample", []float64{4}, 0.99, 4},
		{"p50 of three", []float64{3, 1, 2}, 0.5, 2},
		{"p90 of fifteen", seq(15), 0.9, 14},
		{"p99 of two", []float64{7, 5}, 0.99, 7},
		{"p100 is the maximum", seq(15), 1, 15},
	} {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("%s: percentile(p=%g) = %g, want %g", c.name, c.p, got, c.want)
		}
	}
}
