package core

import (
	"fmt"
	"math"

	"farm/internal/sketch"
)

// SketchVal wraps a count-min sketch as an Almanac value. Sketches are
// reference values within a seed; CloneValue deep-copies them so
// migration snapshots and messages stay isolated.
type SketchVal struct{ S *sketch.CountMin }

// DistinctVal wraps a distinct counter as an Almanac value.
type DistinctVal struct{ D *sketch.Distinct }

// The sketch runtime library — the §VIII "integration of sketches into
// FARM" extension. Bounded-memory stream state for seeds:
//
//	sketch s = sketch_new(512, 4);
//	sketch_add(s, p.dstIP, p.size);
//	if (sketch_count(s, p.dstIP) >= threshold) then { ... }

// maxSketchSize bounds what one sketch_new or distinct_new call may
// allocate: the counters of a count-min sketch (width x depth) and the
// slots of a distinct counter. A seed's dimensions come from its
// program, and nothing else stops a handler from asking for terabytes.
const maxSketchSize = 1 << 20

func nvSketchNew(_ Host, args []rval, line int32) (rval, error) {
	if err := arity(args, 2, "sketch_new(width, depth)", line); err != nil {
		return rval{}, err
	}
	w, ok1 := asFloatR(args[0])
	d, ok2 := asFloatR(args[1])
	if !ok1 || !ok2 {
		return rval{}, fmt.Errorf("core: sketch_new needs numeric dimensions (line %d)", line)
	}
	// The sketch truncates its dimensions and clamps them to at least
	// 8 x 1; their product is taken in float, so no dimension overflows.
	cw, cd := math.Max(math.Trunc(w), 8), math.Max(math.Trunc(d), 1)
	if !finite(w) || !finite(d) || cw*cd > maxSketchSize {
		return rval{}, fmt.Errorf("core: sketch_new(%g, %g): width*depth must be finite and at most %d counters (line %d)", w, d, maxSketchSize, line)
	}
	return rref(SketchVal{S: sketch.NewCountMin(int(w), int(d))}), nil
}

func nvDistinctNew(_ Host, args []rval, line int32) (rval, error) {
	if err := arity(args, 1, "distinct_new(slots)", line); err != nil {
		return rval{}, err
	}
	m, ok := asFloatR(args[0])
	if !ok {
		return rval{}, fmt.Errorf("core: distinct_new needs a numeric size (line %d)", line)
	}
	if !finite(m) || math.Trunc(m) > maxSketchSize {
		return rval{}, fmt.Errorf("core: distinct_new(%g): slots must be finite and at most %d (line %d)", m, maxSketchSize, line)
	}
	return rref(DistinctVal{D: sketch.NewDistinct(int(m))}), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// sketchArg reads a sketch builtin's first argument after checking the
// argument count.
func sketchArg(args []rval, n int, usage string, line int32) (SketchVal, error) {
	if err := arity(args, n, usage, line); err != nil {
		return SketchVal{}, err
	}
	s, ok := args[0].ref.(SketchVal)
	if !ok {
		return SketchVal{}, fmt.Errorf("core: %s needs a sketch, got %s (line %d)", usageName(usage), typeNameR(args[0]), line)
	}
	return s, nil
}

func nvSketchAdd(_ Host, args []rval, line int32) (rval, error) {
	s, err := sketchArg(args, 3, "sketch_add(sketch, key, delta)", line)
	if err != nil {
		return rval{}, err
	}
	delta, ok := asFloatR(args[2])
	if !ok || delta < 0 {
		return rval{}, fmt.Errorf("core: sketch_add delta must be a nonnegative number (line %d)", line)
	}
	s.S.Add(keyText(&args[1]), uint64(delta))
	return args[0], nil
}

func nvSketchCount(_ Host, args []rval, line int32) (rval, error) {
	s, err := sketchArg(args, 2, "sketch_count(sketch, key)", line)
	if err != nil {
		return rval{}, err
	}
	return rint(int64(s.S.Count(keyText(&args[1])))), nil
}

func nvSketchTotal(_ Host, args []rval, line int32) (rval, error) {
	s, err := sketchArg(args, 1, "sketch_total(sketch)", line)
	if err != nil {
		return rval{}, err
	}
	return rint(int64(s.S.Total())), nil
}

func nvSketchReset(_ Host, args []rval, line int32) (rval, error) {
	s, err := sketchArg(args, 1, "sketch_reset(sketch)", line)
	if err != nil {
		return rval{}, err
	}
	s.S.Reset()
	return args[0], nil
}

// distinctArg reads a distinct-counter builtin's first argument after
// checking the argument count.
func distinctArg(args []rval, n int, usage string, line int32) (DistinctVal, error) {
	if err := arity(args, n, usage, line); err != nil {
		return DistinctVal{}, err
	}
	d, ok := args[0].ref.(DistinctVal)
	if !ok {
		return DistinctVal{}, fmt.Errorf("core: %s needs a distinct counter, got %s (line %d)", usageName(usage), typeNameR(args[0]), line)
	}
	return d, nil
}

func nvDistinctAdd(_ Host, args []rval, line int32) (rval, error) {
	d, err := distinctArg(args, 2, "distinct_add(counter, key)", line)
	if err != nil {
		return rval{}, err
	}
	d.D.Add(keyText(&args[1]))
	return args[0], nil
}

func nvDistinctEstimate(_ Host, args []rval, line int32) (rval, error) {
	d, err := distinctArg(args, 1, "distinct_estimate(counter)", line)
	if err != nil {
		return rval{}, err
	}
	return rfloat(d.D.Estimate()), nil
}

func nvDistinctReset(_ Host, args []rval, line int32) (rval, error) {
	d, err := distinctArg(args, 1, "distinct_reset(counter)", line)
	if err != nil {
		return rval{}, err
	}
	d.D.Reset()
	return args[0], nil
}
