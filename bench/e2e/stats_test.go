package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail percentile quoted must leave at least ten samples beyond it,
// and the sample count comes back with it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		pct, value, n := highestPercentile(ramp(tc.n))
		if pct != tc.pct || n != tc.n {
			t.Errorf("n=%d: got p%v of %d samples, want p%v of %d", tc.n, pct, n, tc.pct, tc.n)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > value {
				beyond++
			}
		}
		if tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v leaves only %d samples beyond it", tc.n, pct, value, beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := summarize([]float64{4, 1, 3, 2, 5})
	if d.N != 5 || d.P25 != 2 || d.P50 != 3 || d.P75 != 4 {
		t.Errorf("summarize = %+v", d)
	}
	if got := d.iqrRatio(); got != 2.0/3.0 {
		t.Errorf("iqrRatio = %v", got)
	}
}
