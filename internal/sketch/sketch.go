// Package sketch provides probabilistic stream summaries — a count-min
// sketch and a HyperLogLog-style distinct counter — usable from Almanac
// seeds through the sketch_* runtime builtins.
//
// The paper lists "the integration of sketches into FARM" as future work
// (§VIII): sketches bound per-seed memory for tasks whose exact state
// grows with the key universe (per-flow counts, distinct destinations).
// This package implements that extension.
package sketch

import (
	"hash/fnv"
	"math"
)

// CountMin is a count-min sketch: an approximate frequency table with
// one-sided error (estimates never undercount) bounded by
// eps = e/width with probability 1 - (1/e)^depth.
type CountMin struct {
	width, depth int
	counts       []uint64
	total        uint64
}

// NewCountMin builds a width x depth sketch. Width and depth are
// clamped to sane minimums.
func NewCountMin(width, depth int) *CountMin {
	if width < 8 {
		width = 8
	}
	if depth < 1 {
		depth = 1
	}
	return &CountMin{
		width:  width,
		depth:  depth,
		counts: make([]uint64, width*depth),
	}
}

// Width returns the sketch width (counters per row).
func (s *CountMin) Width() int { return s.width }

// Depth returns the number of hash rows.
func (s *CountMin) Depth() int { return s.depth }

// Total returns the total weight added.
func (s *CountMin) Total() uint64 { return s.total }

func (s *CountMin) index(row int, key string) int {
	h := fnv.New64a()
	// Per-row salt keeps the rows independent.
	h.Write([]byte{byte(row), byte(row >> 8)})
	h.Write([]byte(key))
	return row*s.width + int(h.Sum64()%uint64(s.width))
}

// Add increases key's count by delta.
func (s *CountMin) Add(key string, delta uint64) {
	for r := 0; r < s.depth; r++ {
		s.counts[s.index(r, key)] += delta
	}
	s.total += delta
}

// Count returns the estimated count for key (never an undercount).
func (s *CountMin) Count(key string) uint64 {
	min := uint64(math.MaxUint64)
	for r := 0; r < s.depth; r++ {
		if c := s.counts[s.index(r, key)]; c < min {
			min = c
		}
	}
	if min == math.MaxUint64 {
		return 0
	}
	return min
}

// Reset clears the sketch in place.
func (s *CountMin) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.total = 0
}

// Clone returns a deep copy (seed migration snapshots need isolated
// sketch state).
func (s *CountMin) Clone() *CountMin {
	c := &CountMin{width: s.width, depth: s.depth, total: s.total}
	c.counts = append([]uint64(nil), s.counts...)
	return c
}

// Distinct is a simple linear-probabilistic distinct counter (a bitmap
// estimator): fixed memory, estimate = -m * ln(zeroFraction).
type Distinct struct {
	bits []bool
	m    int
}

// NewDistinct builds a counter with m slots (clamped to >= 64).
func NewDistinct(m int) *Distinct {
	if m < 64 {
		m = 64
	}
	return &Distinct{bits: make([]bool, m), m: m}
}

// Add observes a key.
func (d *Distinct) Add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	d.bits[int(h.Sum64()%uint64(d.m))] = true
}

// Estimate returns the approximate number of distinct keys observed.
func (d *Distinct) Estimate() float64 {
	zero := 0
	for _, b := range d.bits {
		if !b {
			zero++
		}
	}
	if zero == 0 {
		// Saturated: lower-bound by the classic correction's limit.
		return float64(d.m) * math.Log(float64(d.m))
	}
	return -float64(d.m) * math.Log(float64(zero)/float64(d.m))
}

// Reset clears the counter.
func (d *Distinct) Reset() {
	for i := range d.bits {
		d.bits[i] = false
	}
}

// Clone returns a deep copy.
func (d *Distinct) Clone() *Distinct {
	c := &Distinct{m: d.m}
	c.bits = append([]bool(nil), d.bits...)
	return c
}
