package main

import (
	"math"
	"sort"
)

// Dist summarises one metric over the N identical units (or ops) of a
// run: the median and the quartiles the ledger prints beside it.
type Dist struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) Dist {
	s := sortedCopy(xs)
	return Dist{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// iqrRatio is the interquartile distance as a share of the median: the
// spread figure the bounds in BENCHMARK.json are sized against.
func (d Dist) iqrRatio() float64 {
	if d.P50 == 0 {
		return 0
	}
	return (d.P75 - d.P25) / d.P50
}

// tailPercentiles are the percentiles a latency report may quote, from
// the least to the most demanding of samples, each with the share of
// samples that lies beyond it.
var tailPercentiles = []struct{ pct, beyond float64 }{
	{50, 0.5}, {75, 0.25}, {90, 0.1}, {95, 0.05}, {99, 0.01}, {99.9, 0.001},
}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten samples beyond it, its value, and the sample count —
// a p99 quoted from 200 samples is the second-worst sample, not a
// percentile. With fewer than 20 samples it falls back to the median.
func highestPercentile(xs []float64) (pct, value float64, n int) {
	s := sortedCopy(xs)
	n = len(s)
	pct = 50
	for _, p := range tailPercentiles {
		// The epsilon keeps 10000 x 0.001 from rounding to just under 10.
		if float64(n)*p.beyond+1e-9 >= 10 {
			pct = p.pct
		}
	}
	return pct, quantile(s, pct/100), n
}
