package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// newCountMinForError sizes a sketch for the additive error fraction
// eps (of the stream total) and failure probability delta of the
// Count-Min bound: width = ceil(e/eps), depth = ceil(ln(1/delta)).
func newCountMinForError(eps, delta float64) (*CountMin, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: need 0 < eps, delta < 1 (got %g, %g)", eps, delta)
	}
	width := int(math.Ceil(math.E / eps))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(width, depth), nil
}

func TestCountMinNeverUndercounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewCountMin(256, 4)
	truth := map[string]uint64{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(300))
		d := uint64(rng.Intn(5) + 1)
		s.Add(k, d)
		truth[k] += d
	}
	for k, want := range truth {
		if got := s.Count(k); got < want {
			t.Fatalf("undercount for %s: %d < %d", k, got, want)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// eps = e/width of the total weight, per row; with depth 5 the
	// bound holds for virtually every key.
	s, err := newCountMinForError(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	truth := map[string]uint64{}
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(1000))
		s.Add(k, 1)
		truth[k]++
	}
	bound := uint64(0.01*float64(s.Total())) + 1
	bad := 0
	for k, want := range truth {
		if s.Count(k) > want+bound {
			bad++
		}
	}
	if bad > len(truth)/100 {
		t.Fatalf("%d of %d keys exceed the error bound", bad, len(truth))
	}
}

func TestCountMinUnseenKey(t *testing.T) {
	s := NewCountMin(1024, 4)
	s.Add("a", 10)
	// An unseen key's estimate is bounded by collisions; on a near-empty
	// sketch it should be 0.
	if got := s.Count("definitely-not-added"); got != 0 {
		t.Fatalf("unseen key count = %d", got)
	}
}

func TestCountMinMerge(t *testing.T) {
	a := NewCountMin(128, 3)
	b := NewCountMin(128, 3)
	a.Add("x", 5)
	b.Add("x", 7)
	b.Add("y", 2)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Count("x"); got < 12 {
		t.Fatalf("merged count = %d, want >= 12", got)
	}
	if got := a.Count("y"); got < 2 {
		t.Fatalf("merged count = %d, want >= 2", got)
	}
	if a.Total() != 14 {
		t.Fatalf("total = %d", a.Total())
	}
	c := NewCountMin(64, 3)
	if err := a.Merge(c); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestCountMinReset(t *testing.T) {
	s := NewCountMin(64, 2)
	s.Add("a", 3)
	s.Reset()
	if s.Count("a") != 0 || s.Total() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestCountMinForErrorValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.1}, {0.1, 0}, {1, 0.1}, {0.1, 1}} {
		if _, err := newCountMinForError(bad[0], bad[1]); err == nil {
			t.Fatalf("eps=%g delta=%g accepted", bad[0], bad[1])
		}
	}
}

// Property: merging two sketches equals adding both streams into one.
func TestCountMinMergeEquivalence(t *testing.T) {
	f := func(keysA, keysB []uint8) bool {
		one := NewCountMin(128, 3)
		a := NewCountMin(128, 3)
		b := NewCountMin(128, 3)
		for _, k := range keysA {
			key := fmt.Sprint(k)
			one.Add(key, 1)
			a.Add(key, 1)
		}
		for _, k := range keysB {
			key := fmt.Sprint(k)
			one.Add(key, 1)
			b.Add(key, 1)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		for k := 0; k < 256; k++ {
			key := fmt.Sprint(uint8(k))
			if a.Count(key) != one.Count(key) {
				return false
			}
		}
		return a.Total() == one.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctEstimate(t *testing.T) {
	d := NewDistinct(4096)
	for i := 0; i < 1000; i++ {
		d.Add(fmt.Sprintf("key-%d", i))
	}
	// Duplicates must not move the estimate.
	for i := 0; i < 1000; i++ {
		d.Add(fmt.Sprintf("key-%d", i))
	}
	est := d.Estimate()
	if math.Abs(est-1000) > 100 {
		t.Fatalf("estimate = %.0f, want ~1000", est)
	}
}

func TestDistinctMergeAndReset(t *testing.T) {
	a := NewDistinct(8192)
	b := NewDistinct(8192)
	for i := 0; i < 300; i++ {
		a.Add(fmt.Sprintf("a%d", i))
		b.Add(fmt.Sprintf("b%d", i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if est := a.Estimate(); math.Abs(est-600) > 90 {
		t.Fatalf("merged estimate = %.0f, want ~600", est)
	}
	a.Reset()
	if a.Estimate() != 0 {
		t.Fatal("reset estimate nonzero")
	}
	c := NewDistinct(64)
	if err := a.Merge(c); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestDistinctSaturation(t *testing.T) {
	d := NewDistinct(64)
	for i := 0; i < 10000; i++ {
		d.Add(fmt.Sprint(i))
	}
	if est := d.Estimate(); est <= 0 || math.IsInf(est, 0) {
		t.Fatalf("saturated estimate = %g", est)
	}
}

// Merge adds another sketch of identical dimensions into s — the
// cross-switch aggregation a harvester would perform over per-seed
// sketches.
func (s *CountMin) Merge(o *CountMin) error {
	if s.width != o.width || s.depth != o.depth {
		return fmt.Errorf("sketch: dimension mismatch %dx%d vs %dx%d", s.width, s.depth, o.width, o.depth)
	}
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
	s.total += o.total
	return nil
}

// Merge ORs another counter of the same size into d.
func (d *Distinct) Merge(o *Distinct) error {
	if d.m != o.m {
		return fmt.Errorf("sketch: distinct size mismatch %d vs %d", d.m, o.m)
	}
	for i, b := range o.bits {
		if b {
			d.bits[i] = true
		}
	}
	return nil
}
