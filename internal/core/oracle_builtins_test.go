package core

import (
	"fmt"
	"math"

	"farm/internal/dataplane"
	"farm/internal/sketch"
)

// The runtime library of the interpreter oracle: every builtin on boxed
// values, with the error strings the register VM's natives (builtins.go,
// sketch_builtins.go) must reproduce. TestBuiltinTable and FuzzBuiltins
// hold each native to its twin here; the interpreter calls these.

type builtinFn func(h Host, args []Value, line int) (Value, error)

var builtins map[string]builtinFn

func init() {
	// Assigned in init to allow the table to reference helper functions
	// defined below without an initialization cycle.
	builtins = map[string]builtinFn{
		// Runtime library (List. 1).
		"res":            biRes,
		"addTCAMRule":    biAddTCAMRule,
		"removeTCAMRule": biRemoveTCAMRule,
		"getTCAMRule":    biGetTCAMRule,
		"exec":           biExec,
		// Actions for TCAM rules.
		"drop":      func(Host, []Value, int) (Value, error) { return ActionVal(dataplane.ActDrop), nil },
		"allow":     func(Host, []Value, int) (Value, error) { return ActionVal(dataplane.ActAllow), nil },
		"rateLimit": func(Host, []Value, int) (Value, error) { return ActionVal(dataplane.ActRateLimit), nil },
		"mirror":    func(Host, []Value, int) (Value, error) { return ActionVal(dataplane.ActMirror), nil },
		"countAct":  func(Host, []Value, int) (Value, error) { return ActionVal(dataplane.ActCount), nil },
		"setQoS":    func(Host, []Value, int) (Value, error) { return ActionVal(dataplane.ActSetQoS), nil },
		// Math.
		"min":   biMin,
		"max":   biMax,
		"abs":   biAbs,
		"log":   biLog,
		"log2":  biLog2,
		"floor": biFloor,
		// Lists.
		"list_append":   biListAppend,
		"list_len":      biListLen,
		"is_list_empty": biListEmpty,
		"list_contains": biListContains,
		"list_get":      biListGet,
		"list_clear":    func(Host, []Value, int) (Value, error) { return List(nil), nil },
		// Maps.
		"map_new":  func(Host, []Value, int) (Value, error) { return NewMap(), nil },
		"map_get":  biMapGet,
		"map_set":  biMapSet,
		"map_has":  biMapHas,
		"map_del":  biMapDel,
		"map_len":  biMapLen,
		"map_keys": biMapKeys,
		// Misc.
		"now": biNow,
		"str": biStr,
		"log_msg": func(h Host, args []Value, _ int) (Value, error) {
			parts := make([]any, len(args))
			for i, a := range args {
				parts[i] = FormatValue(a)
			}
			h.Log("%v", parts)
			return nil, nil
		},
		// Statistics helpers for the canonical tasks.
		"getHH": biGetHH,
		// Sketches (§VIII).
		"sketch_new":        biSketchNew,
		"sketch_add":        biSketchAdd,
		"sketch_count":      biSketchCount,
		"sketch_total":      biSketchTotal,
		"sketch_reset":      biSketchReset,
		"distinct_new":      biDistinctNew,
		"distinct_add":      biDistinctAdd,
		"distinct_estimate": biDistinctEstimate,
		"distinct_reset":    biDistinctReset,
	}
}

func biRes(h Host, args []Value, line int) (Value, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("core: res() takes no arguments (line %d)", line)
	}
	return ResourcesVal(h.Resources()), nil
}

// biAddTCAMRule accepts either a Rule struct {.pattern, .act, .priority}
// or (filter, action [, priority]).
func biAddTCAMRule(h Host, args []Value, line int) (Value, error) {
	var rule dataplane.Rule
	switch {
	case len(args) == 1:
		sv, ok := args[0].(StructVal)
		if !ok || sv.Type() != "Rule" {
			return nil, fmt.Errorf("core: addTCAMRule needs a Rule struct (line %d)", line)
		}
		pat, _ := sv.Get("pattern")
		f, ok := pat.(FilterVal)
		if !ok {
			return nil, fmt.Errorf("core: Rule.pattern must be a filter (line %d)", line)
		}
		act, _ := sv.Get("act")
		a, ok := act.(ActionVal)
		if !ok {
			return nil, fmt.Errorf("core: Rule.act must be an action (line %d)", line)
		}
		rule.Filter, rule.Action = f.F, dataplane.Action(a)
		prio, _ := sv.Get("priority")
		if p, ok := AsFloat(prio); ok {
			rule.Priority = int(p)
		}
	case len(args) >= 2:
		f, ok := args[0].(FilterVal)
		if !ok {
			return nil, fmt.Errorf("core: addTCAMRule: first argument must be a filter (line %d)", line)
		}
		a, ok := args[1].(ActionVal)
		if !ok {
			return nil, fmt.Errorf("core: addTCAMRule: second argument must be an action (line %d)", line)
		}
		rule.Filter, rule.Action = f.F, dataplane.Action(a)
		if len(args) == 3 {
			p, ok := AsFloat(args[2])
			if !ok {
				return nil, fmt.Errorf("core: addTCAMRule: priority must be a number (line %d)", line)
			}
			rule.Priority = int(p)
		}
	default:
		return nil, fmt.Errorf("core: addTCAMRule needs a rule (line %d)", line)
	}
	if err := h.AddTCAMRule(rule); err != nil {
		return nil, fmt.Errorf("core: addTCAMRule: %w (line %d)", err, line)
	}
	return nil, nil
}

func biRemoveTCAMRule(h Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: removeTCAMRule needs a filter (line %d)", line)
	}
	f, ok := args[0].(FilterVal)
	if !ok {
		return nil, fmt.Errorf("core: removeTCAMRule needs a filter, got %s (line %d)", TypeName(args[0]), line)
	}
	return h.RemoveTCAMRule(f.F), nil
}

func biGetTCAMRule(h Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: getTCAMRule needs a filter (line %d)", line)
	}
	f, ok := args[0].(FilterVal)
	if !ok {
		return nil, fmt.Errorf("core: getTCAMRule needs a filter (line %d)", line)
	}
	r, found := h.GetTCAMRule(f.F)
	if !found {
		return nil, nil
	}
	return StructVal{L: ruleLayout, V: []Value{
		FilterVal{F: r.Filter},
		ActionVal(r.Action),
		int64(r.Priority),
	}}, nil
}

func biExec(h Host, args []Value, line int) (Value, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("core: exec needs a command (line %d)", line)
	}
	cmd, ok := args[0].(string)
	if !ok {
		return nil, fmt.Errorf("core: exec command must be a string (line %d)", line)
	}
	var arg Value
	if len(args) == 2 {
		arg = args[1]
	}
	return h.Exec(cmd, arg)
}

func numericArgs(name string, args []Value, line int) ([]float64, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("core: %s needs arguments (line %d)", name, line)
	}
	out := make([]float64, len(args))
	for i, a := range args {
		f, ok := AsFloat(a)
		if !ok {
			return nil, fmt.Errorf("core: %s: argument %d is %s, not numeric (line %d)", name, i+1, TypeName(a), line)
		}
		out[i] = f
	}
	return out, nil
}

func allInts(args []Value) bool {
	for _, a := range args {
		if _, ok := a.(int64); !ok {
			return false
		}
	}
	return true
}

func biMin(_ Host, args []Value, line int) (Value, error) {
	fs, err := numericArgs("min", args, line)
	if err != nil {
		return nil, err
	}
	best := fs[0]
	for _, f := range fs[1:] {
		if f < best {
			best = f
		}
	}
	if allInts(args) {
		return int64(best), nil
	}
	return best, nil
}

func biMax(_ Host, args []Value, line int) (Value, error) {
	fs, err := numericArgs("max", args, line)
	if err != nil {
		return nil, err
	}
	best := fs[0]
	for _, f := range fs[1:] {
		if f > best {
			best = f
		}
	}
	if allInts(args) {
		return int64(best), nil
	}
	return best, nil
}

func biAbs(_ Host, args []Value, line int) (Value, error) {
	fs, err := numericArgs("abs", args, line)
	if err != nil {
		return nil, err
	}
	if v, ok := args[0].(int64); ok {
		if v < 0 {
			return -v, nil
		}
		return v, nil
	}
	return math.Abs(fs[0]), nil
}

func biLog(_ Host, args []Value, line int) (Value, error) {
	fs, err := numericArgs("log", args, line)
	if err != nil {
		return nil, err
	}
	if fs[0] <= 0 {
		return nil, fmt.Errorf("core: log of non-positive %g (line %d)", fs[0], line)
	}
	return math.Log(fs[0]), nil
}

func biLog2(_ Host, args []Value, line int) (Value, error) {
	fs, err := numericArgs("log2", args, line)
	if err != nil {
		return nil, err
	}
	if fs[0] <= 0 {
		return nil, fmt.Errorf("core: log2 of non-positive %g (line %d)", fs[0], line)
	}
	return math.Log2(fs[0]), nil
}

func biFloor(_ Host, args []Value, line int) (Value, error) {
	fs, err := numericArgs("floor", args, line)
	if err != nil {
		return nil, err
	}
	return int64(math.Floor(fs[0])), nil
}

func biListAppend(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: list_append(list, value) (line %d)", line)
	}
	l, ok := args[0].(List)
	if !ok && args[0] != nil {
		return nil, fmt.Errorf("core: list_append: first argument is %s (line %d)", TypeName(args[0]), line)
	}
	out := make(List, 0, len(l)+1)
	out = append(out, l...)
	return append(out, args[1]), nil
}

func asList(v Value, name string, line int) (List, error) {
	if v == nil {
		return nil, nil
	}
	l, ok := v.(List)
	if !ok {
		return nil, fmt.Errorf("core: %s needs a list, got %s (line %d)", name, TypeName(v), line)
	}
	return l, nil
}

func biListLen(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: list_len(list) (line %d)", line)
	}
	l, err := asList(args[0], "list_len", line)
	if err != nil {
		return nil, err
	}
	return int64(len(l)), nil
}

func biListEmpty(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: is_list_empty(list) (line %d)", line)
	}
	l, err := asList(args[0], "is_list_empty", line)
	if err != nil {
		return nil, err
	}
	return len(l) == 0, nil
}

func biListContains(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: list_contains(list, value) (line %d)", line)
	}
	l, err := asList(args[0], "list_contains", line)
	if err != nil {
		return nil, err
	}
	for _, e := range l {
		if Equal(e, args[1]) {
			return true, nil
		}
	}
	return false, nil
}

func biListGet(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: list_get(list, index) (line %d)", line)
	}
	l, err := asList(args[0], "list_get", line)
	if err != nil {
		return nil, err
	}
	idx, ok := AsFloat(args[1])
	if !ok {
		return nil, fmt.Errorf("core: list_get index must be numeric (line %d)", line)
	}
	i := int(idx)
	if i < 0 || i >= len(l) {
		return nil, fmt.Errorf("core: list_get index %d out of range [0,%d) (line %d)", i, len(l), line)
	}
	return l[i], nil
}

func asMap(v Value, name string, line int) (*MapVal, error) {
	m, ok := v.(*MapVal)
	if !ok {
		return nil, fmt.Errorf("core: %s needs a map, got %s (line %d)", name, TypeName(v), line)
	}
	return m, nil
}

// keyString is keyText of a boxed key.
func keyString(v Value) string {
	k := unbox(v)
	return keyText(&k)
}

func biMapGet(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("core: map_get(map, key, default) (line %d)", line)
	}
	m, err := asMap(args[0], "map_get", line)
	if err != nil {
		return nil, err
	}
	k := unbox(args[1])
	if i := m.find(&k); i >= 0 {
		return m.slots[i].val.box(), nil
	}
	return args[2], nil
}

func biMapSet(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("core: map_set(map, key, value) (line %d)", line)
	}
	m, err := asMap(args[0], "map_set", line)
	if err != nil {
		return nil, err
	}
	k, v := unbox(args[1]), unbox(args[2])
	m.set(&k, &v)
	return m, nil
}

func biMapHas(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: map_has(map, key) (line %d)", line)
	}
	m, err := asMap(args[0], "map_has", line)
	if err != nil {
		return nil, err
	}
	k := unbox(args[1])
	return m.find(&k) >= 0, nil
}

func biMapDel(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: map_del(map, key) (line %d)", line)
	}
	m, err := asMap(args[0], "map_del", line)
	if err != nil {
		return nil, err
	}
	k := unbox(args[1])
	m.del(&k)
	return m, nil
}

func biMapLen(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: map_len(map) (line %d)", line)
	}
	m, err := asMap(args[0], "map_len", line)
	if err != nil {
		return nil, err
	}
	return int64(m.Len()), nil
}

func biMapKeys(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: map_keys(map) (line %d)", line)
	}
	m, err := asMap(args[0], "map_keys", line)
	if err != nil {
		return nil, err
	}
	return m.keyList(), nil
}

func biNow(h Host, args []Value, line int) (Value, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("core: now() takes no arguments (line %d)", line)
	}
	return float64(h.Now().Milliseconds()), nil
}

func biStr(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("core: str(value) (line %d)", line)
	}
	if s, ok := args[0].(string); ok {
		return s, nil
	}
	return FormatValue(args[0]), nil
}

// biGetHH is the paper's abstracted getHH helper: given a list of
// PortStats records and a byte threshold, return the ports whose
// transmitted bytes since the last poll reach the threshold.
func biGetHH(_ Host, args []Value, line int) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("core: getHH(stats, threshold) (line %d)", line)
	}
	stats, err := asList(args[0], "getHH", line)
	if err != nil {
		return nil, err
	}
	th, ok := AsFloat(args[1])
	if !ok {
		return nil, fmt.Errorf("core: getHH threshold must be numeric (line %d)", line)
	}
	hitters, bad := hhRecords{l: stats}.hitters(th)
	if bad >= 0 {
		return nil, fmt.Errorf("core: getHH expects PortStats records, got %s (line %d)", TypeName(stats[bad]), line)
	}
	return hitters, nil
}

// hhRecords is getHH's records argument in either representation: an
// unboxed poll batch in the port_stats layout (the register VM's fast
// path) or a boxed list.
type hhRecords struct {
	b *Batch
	l List
}

func (r hhRecords) len() int {
	if r.b != nil {
		return r.b.Len()
	}
	return len(r.l)
}

// dTx returns record i's transmitted-byte delta; ok is false when
// element i is not a PortStats record.
func (r hhRecords) dTx(i int) (d float64, ok bool) {
	if r.b != nil {
		return float64(r.b.at(i, psDTxBytes)), true
	}
	sv, ok := r.l[i].(StructVal)
	if !ok || sv.Type() != "PortStats" {
		return 0, false
	}
	if sv.L == portStatsLayout {
		d, _ = AsFloat(sv.V[psDTxBytes])
		return d, true
	}
	dv, _ := sv.Get("dTxBytes")
	d, _ = AsFloat(dv)
	return d, true
}

func (r hhRecords) port(i int) Value {
	if r.b != nil {
		return r.b.at(i, psPort)
	}
	p, _ := r.l[i].(StructVal).Get("port")
	return p
}

// hitters scans the records once to count the ports at or above the
// threshold and once to collect them, so the result is allocated at its
// final size (nil when there is none). bad is the index of the first
// element that is not a PortStats record, or -1.
func (r hhRecords) hitters(th float64) (out List, bad int) {
	n := 0
	for i := 0; i < r.len(); i++ {
		d, ok := r.dTx(i)
		if !ok {
			return nil, i
		}
		if d >= th {
			n++
		}
	}
	if n == 0 {
		return nil, -1
	}
	out = make(List, 0, n)
	for i := 0; i < r.len(); i++ {
		if d, _ := r.dTx(i); d >= th {
			out = append(out, r.port(i))
		}
	}
	return out, -1
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
	// The sketch truncates its dimensions and clamps them to at least
	// 8 x 1; the counters they come to are bounded.
	cw, cd := math.Max(math.Trunc(w), 8), math.Max(math.Trunc(d), 1)
	if math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(d) || math.IsInf(d, 0) || cw*cd > maxSketchSize {
		return nil, fmt.Errorf("core: sketch_new(%g, %g): width*depth must be finite and at most %d counters (line %d)", w, d, maxSketchSize, line)
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
	if math.IsNaN(m) || math.IsInf(m, 0) || math.Trunc(m) > maxSketchSize {
		return nil, fmt.Errorf("core: distinct_new(%g): slots must be finite and at most %d (line %d)", m, maxSketchSize, line)
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
