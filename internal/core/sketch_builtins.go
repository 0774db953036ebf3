package core

import (
	"fmt"

	"farm/internal/sketch"
)

// SketchVal wraps a count-min sketch as an Almanac value. Sketches are
// reference values within a seed; CloneValue deep-copies them so
// migration snapshots and messages stay isolated.
type SketchVal struct{ S *sketch.CountMin }

// DistinctVal wraps a distinct counter as an Almanac value.
type DistinctVal struct{ D *sketch.Distinct }

func init() {
	// Sketch runtime library — the §VIII "integration of sketches into
	// FARM" extension. Bounded-memory stream state for seeds:
	//   sketch s = sketch_new(512, 4);
	//   sketch_add(s, p.dstIP, p.size);
	//   if (sketch_count(s, p.dstIP) >= threshold) then { ... }
	builtins["sketch_new"] = biSketchNew
	builtins["sketch_add"] = biSketchAdd
	builtins["sketch_count"] = biSketchCount
	builtins["sketch_total"] = biSketchTotal
	builtins["sketch_reset"] = biSketchReset
	builtins["distinct_new"] = biDistinctNew
	builtins["distinct_add"] = biDistinctAdd
	builtins["distinct_estimate"] = biDistinctEstimate
	builtins["distinct_reset"] = biDistinctReset
}

func biSketchNew(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: sketch_new(width, depth) (line %d)", line)
	}
	w, ok1 := AsFloat(args[0])
	d, ok2 := AsFloat(args[1])
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("core: sketch_new needs numeric dimensions (line %d)", line)
	}
	return SketchVal{S: sketch.NewCountMin(int(w), int(d))}, nil
}

func asSketch(v Value, name string, line int) (SketchVal, error) {
	s, ok := v.(SketchVal)
	if !ok {
		return SketchVal{}, fmt.Errorf("core: %s needs a sketch, got %s (line %d)", name, TypeName(v), line)
	}
	return s, nil
}

func biSketchAdd(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("core: sketch_add(sketch, key, delta) (line %d)", line)
	}
	s, err := asSketch(args[0], "sketch_add", line)
	if err != nil {
		return nil, err
	}
	delta, ok := AsFloat(args[2])
	if !ok || delta < 0 {
		return nil, fmt.Errorf("core: sketch_add delta must be a nonnegative number (line %d)", line)
	}
	s.S.Add(keyString(args[1]), uint64(delta))
	return s, nil
}

func biSketchCount(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: sketch_count(sketch, key) (line %d)", line)
	}
	s, err := asSketch(args[0], "sketch_count", line)
	if err != nil {
		return nil, err
	}
	return int64(s.S.Count(keyString(args[1]))), nil
}

func biSketchTotal(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: sketch_total(sketch) (line %d)", line)
	}
	s, err := asSketch(args[0], "sketch_total", line)
	if err != nil {
		return nil, err
	}
	return int64(s.S.Total()), nil
}

func biSketchReset(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: sketch_reset(sketch) (line %d)", line)
	}
	s, err := asSketch(args[0], "sketch_reset", line)
	if err != nil {
		return nil, err
	}
	s.S.Reset()
	return s, nil
}

func biDistinctNew(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: distinct_new(slots) (line %d)", line)
	}
	m, ok := AsFloat(args[0])
	if !ok {
		return nil, fmt.Errorf("core: distinct_new needs a numeric size (line %d)", line)
	}
	return DistinctVal{D: sketch.NewDistinct(int(m))}, nil
}

func asDistinct(v Value, name string, line int) (DistinctVal, error) {
	d, ok := v.(DistinctVal)
	if !ok {
		return DistinctVal{}, fmt.Errorf("core: %s needs a distinct counter, got %s (line %d)", name, TypeName(v), line)
	}
	return d, nil
}

func biDistinctAdd(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: distinct_add(counter, key) (line %d)", line)
	}
	d, err := asDistinct(args[0], "distinct_add", line)
	if err != nil {
		return nil, err
	}
	d.D.Add(keyString(args[1]))
	return d, nil
}

func biDistinctEstimate(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: distinct_estimate(counter) (line %d)", line)
	}
	d, err := asDistinct(args[0], "distinct_estimate", line)
	if err != nil {
		return nil, err
	}
	return d.D.Estimate(), nil
}

func biDistinctReset(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: distinct_reset(counter) (line %d)", line)
	}
	d, err := asDistinct(args[0], "distinct_reset", line)
	if err != nil {
		return nil, err
	}
	d.D.Reset()
	return d, nil
}
