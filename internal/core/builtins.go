package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"farm/internal/dataplane"
)

// Aliases keeping the packet field reads terse.
const (
	flagSYN = dataplane.FlagSYN
	flagACK = dataplane.FlagACK
	flagFIN = dataplane.FlagFIN
	flagRST = dataplane.FlagRST
)

func dataplanePacket(p PacketVal) dataplane.Packet { return dataplane.Packet(p) }

// nativeFn is one function of the runtime library, run by the register
// VM on its unboxed arguments: it reads them in place, converts what it
// must read as a whole (a poll batch's records, a lent packet) with box,
// and produces its own errors.
//
// A boxed value — a List, *MapVal, FilterVal, SketchVal, ... — is only
// ever held by an rkRef rval, so a type assertion on ref for one of those
// is also the kind check. (A batch and its rows both hold a *Batch.)
type nativeFn func(h Host, args []rval, line int32) (rval, error)

// natives is the runtime library (List. 1 plus the helpers the Tab. I
// tasks use, and the §VIII sketches in sketch_builtins.go), one
// implementation per name; Compile links a program's builtin names to it
// by index.
var natives = map[string]nativeFn{
	// Runtime library (List. 1).
	"res":            nvRes,
	"addTCAMRule":    nvAddTCAMRule,
	"removeTCAMRule": nvRemoveTCAMRule,
	"getTCAMRule":    nvGetTCAMRule,
	"exec":           nvExec,
	// Actions for TCAM rules.
	"drop":      action(dataplane.ActDrop),
	"allow":     action(dataplane.ActAllow),
	"rateLimit": action(dataplane.ActRateLimit),
	"mirror":    action(dataplane.ActMirror),
	"countAct":  action(dataplane.ActCount),
	"setQoS":    action(dataplane.ActSetQoS),
	// Math.
	"min":   nvMin,
	"max":   nvMax,
	"abs":   nvAbs,
	"log":   nvLog,
	"log2":  nvLog2,
	"floor": nvFloor,
	// Lists.
	"list_append":   nvListAppend,
	"list_len":      nvListLen,
	"is_list_empty": nvListEmpty,
	"list_contains": nvListContains,
	"list_get":      nvListGet,
	"list_clear":    nvListClear,
	// Maps.
	"map_new":  nvMapNew,
	"map_get":  nvMapGet,
	"map_set":  nvMapSet,
	"map_has":  nvMapHas,
	"map_del":  nvMapDel,
	"map_len":  nvMapLen,
	"map_keys": nvMapKeys,
	// Misc.
	"now":     nvNow,
	"str":     nvStr,
	"log_msg": nvLogMsg,
	// Statistics helpers for the canonical tasks.
	"getHH": nvGetHH,
	// Sketches (§VIII).
	"sketch_new":        nvSketchNew,
	"sketch_add":        nvSketchAdd,
	"sketch_count":      nvSketchCount,
	"sketch_total":      nvSketchTotal,
	"sketch_reset":      nvSketchReset,
	"distinct_new":      nvDistinctNew,
	"distinct_add":      nvDistinctAdd,
	"distinct_estimate": nvDistinctEstimate,
	"distinct_reset":    nvDistinctReset,
}

// BuiltinNames returns the sorted runtime library function names
// (documentation and farmctl introspection).
func BuiltinNames() []string {
	names := make([]string, 0, len(natives))
	for n := range natives {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// arity checks a builtin's argument count; the error quotes its usage,
// e.g. "map_get(map, key, default)".
func arity(args []rval, n int, usage string, line int32) error {
	if len(args) != n {
		return fmt.Errorf("core: %s (line %d)", usage, line)
	}
	return nil
}

// usageName is the builtin a usage line is about.
func usageName(usage string) string {
	name, _, _ := strings.Cut(usage, "(")
	return name
}

func nvRes(h Host, args []rval, line int32) (rval, error) {
	if len(args) != 0 {
		return rval{}, fmt.Errorf("core: res() takes no arguments (line %d)", line)
	}
	return rref(ResourcesVal(h.Resources())), nil
}

// nvAddTCAMRule accepts either a Rule struct {.pattern, .act, .priority}
// or (filter, action [, priority]).
func nvAddTCAMRule(h Host, args []rval, line int32) (rval, error) {
	var rule dataplane.Rule
	switch {
	case len(args) == 1:
		sv, ok := args[0].box().(StructVal)
		if !ok || sv.Type() != "Rule" {
			return rval{}, fmt.Errorf("core: addTCAMRule needs a Rule struct (line %d)", line)
		}
		pat, _ := sv.Get("pattern")
		f, ok := pat.(FilterVal)
		if !ok {
			return rval{}, fmt.Errorf("core: Rule.pattern must be a filter (line %d)", line)
		}
		act, _ := sv.Get("act")
		a, ok := act.(ActionVal)
		if !ok {
			return rval{}, fmt.Errorf("core: Rule.act must be an action (line %d)", line)
		}
		rule.Filter, rule.Action = f.F, dataplane.Action(a)
		prio, _ := sv.Get("priority")
		if p, ok := AsFloat(prio); ok {
			rule.Priority = int(p)
		}
	case len(args) >= 2:
		f, ok := args[0].ref.(FilterVal)
		if !ok {
			return rval{}, fmt.Errorf("core: addTCAMRule: first argument must be a filter (line %d)", line)
		}
		a, ok := args[1].ref.(ActionVal)
		if !ok {
			return rval{}, fmt.Errorf("core: addTCAMRule: second argument must be an action (line %d)", line)
		}
		rule.Filter, rule.Action = f.F, dataplane.Action(a)
		if len(args) == 3 {
			p, ok := asFloatR(args[2])
			if !ok {
				return rval{}, fmt.Errorf("core: addTCAMRule: priority must be a number (line %d)", line)
			}
			rule.Priority = int(p)
		}
	default:
		return rval{}, fmt.Errorf("core: addTCAMRule needs a rule (line %d)", line)
	}
	if err := h.AddTCAMRule(rule); err != nil {
		return rval{}, fmt.Errorf("core: addTCAMRule: %w (line %d)", err, line)
	}
	return rval{k: rkNil}, nil
}

func nvRemoveTCAMRule(h Host, args []rval, line int32) (rval, error) {
	if len(args) != 1 {
		return rval{}, fmt.Errorf("core: removeTCAMRule needs a filter (line %d)", line)
	}
	f, ok := args[0].ref.(FilterVal)
	if !ok {
		return rval{}, fmt.Errorf("core: removeTCAMRule needs a filter, got %s (line %d)", typeNameR(args[0]), line)
	}
	return rbool(h.RemoveTCAMRule(f.F)), nil
}

func nvGetTCAMRule(h Host, args []rval, line int32) (rval, error) {
	var f FilterVal
	ok := len(args) == 1
	if ok {
		f, ok = args[0].ref.(FilterVal)
	}
	if !ok {
		return rval{}, fmt.Errorf("core: getTCAMRule needs a filter (line %d)", line)
	}
	r, found := h.GetTCAMRule(f.F)
	if !found {
		return rval{k: rkNil}, nil
	}
	return rref(StructVal{L: ruleLayout, V: []Value{
		FilterVal{F: r.Filter},
		ActionVal(r.Action),
		int64(r.Priority),
	}}), nil
}

// nvExec hands the host its argument only when there are exactly two.
func nvExec(h Host, args []rval, line int32) (rval, error) {
	if len(args) < 1 {
		return rval{}, fmt.Errorf("core: exec needs a command (line %d)", line)
	}
	if args[0].k != rkStr {
		return rval{}, fmt.Errorf("core: exec command must be a string (line %d)", line)
	}
	var arg Value
	if len(args) == 2 {
		arg = args[1].box()
	}
	v, err := h.Exec(args[0].asStr(), arg)
	if err != nil {
		return rval{}, err
	}
	return unbox(v), nil
}

// action is a TCAM action constructor; it takes any arguments and
// ignores them.
func action(a dataplane.Action) nativeFn {
	v := Value(ActionVal(a))
	return func(Host, []rval, int32) (rval, error) { return rref(v), nil }
}

// numeric checks a math builtin's arguments: at least one, every one a
// number.
func numeric(name string, args []rval, line int32) error {
	if len(args) == 0 {
		return fmt.Errorf("core: %s needs arguments (line %d)", name, line)
	}
	for i, a := range args {
		if a.k != rkInt && a.k != rkFloat {
			return fmt.Errorf("core: %s: argument %d is %s, not numeric (line %d)", name, i+1, typeNameR(a), line)
		}
	}
	return nil
}

// minMax compares as floats and returns a long (the float narrowed back)
// when every operand is one.
func minMax(name string, args []rval, line int32, max bool) (rval, error) {
	if err := numeric(name, args, line); err != nil {
		return rval{}, err
	}
	allInt := true
	best, _ := asFloatR(args[0])
	for i, a := range args {
		allInt = allInt && a.k == rkInt
		if f, _ := asFloatR(a); i > 0 && ((max && f > best) || (!max && f < best)) {
			best = f
		}
	}
	if allInt {
		return rint(int64(best)), nil
	}
	return rfloat(best), nil
}

func nvMin(_ Host, args []rval, line int32) (rval, error) { return minMax("min", args, line, false) }
func nvMax(_ Host, args []rval, line int32) (rval, error) { return minMax("max", args, line, true) }

// The one-operand math builtins check every argument and use the first.

func nvAbs(_ Host, args []rval, line int32) (rval, error) {
	if err := numeric("abs", args, line); err != nil {
		return rval{}, err
	}
	if a := args[0]; a.k == rkInt {
		if a.i < 0 {
			return rint(-a.i), nil
		}
		return a, nil
	}
	return rfloat(math.Abs(args[0].f)), nil
}

func nvLog(_ Host, args []rval, line int32) (rval, error) {
	return logOf("log", math.Log, args, line)
}

func nvLog2(_ Host, args []rval, line int32) (rval, error) {
	return logOf("log2", math.Log2, args, line)
}

func logOf(name string, log func(float64) float64, args []rval, line int32) (rval, error) {
	if err := numeric(name, args, line); err != nil {
		return rval{}, err
	}
	f, _ := asFloatR(args[0])
	if f <= 0 {
		return rval{}, fmt.Errorf("core: %s of non-positive %g (line %d)", name, f, line)
	}
	return rfloat(log(f)), nil
}

func nvFloor(_ Host, args []rval, line int32) (rval, error) {
	if err := numeric("floor", args, line); err != nil {
		return rval{}, err
	}
	f, _ := asFloatR(args[0])
	return rint(int64(math.Floor(f))), nil
}

// asListR reads a list in place: nil is the empty list. A poll batch is
// not one here; the list builtins read it through listArg.
func asListR(r rval) (List, bool) {
	if r.k <= rkNil {
		return nil, true
	}
	l, ok := r.ref.(List)
	return l, ok
}

// listView is a list argument: a poll batch read in place, or a list.
type listView struct {
	b *Batch
	l List
}

// listArg reads a list builtin's first argument after checking the
// argument count.
func listArg(args []rval, n int, usage string, line int32) (listView, error) {
	if err := arity(args, n, usage, line); err != nil {
		return listView{}, err
	}
	if args[0].k == rkBatch {
		return listView{b: args[0].ref.(*Batch)}, nil
	}
	l, ok := asListR(args[0])
	if !ok {
		return listView{}, fmt.Errorf("core: %s needs a list, got %s (line %d)", usageName(usage), typeNameR(args[0]), line)
	}
	return listView{l: l}, nil
}

func (v listView) len() int {
	if v.b != nil {
		return v.b.Len()
	}
	return len(v.l)
}

// at is element i; a batch's is a row, no record built.
func (v listView) at(i int) rval {
	if v.b != nil {
		return rval{k: rkRow, i: int64(i), ref: v.b}
	}
	return unbox(v.l[i])
}

// dTx returns record i's transmitted-byte delta; ok is false when
// element i is not a PortStats record.
func (v listView) dTx(i int) (d float64, ok bool) {
	if v.b != nil {
		if v.b.l != portStatsLayout {
			return 0, false
		}
		return float64(v.b.at(i, psDTxBytes)), true
	}
	sv, ok := v.l[i].(StructVal)
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

func (v listView) port(i int) Value {
	if v.b != nil {
		return v.b.at(i, psPort)
	}
	p, _ := v.l[i].(StructVal).Get("port")
	return p
}

// hitters scans the records once to count the ports at or above the
// threshold and once to collect them, so the result is allocated at its
// final size (nil when there is none). bad is the index of the first
// element that is not a PortStats record, or -1.
func (v listView) hitters(th float64) (out List, bad int) {
	n := 0
	for i := 0; i < v.len(); i++ {
		d, ok := v.dTx(i)
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
	for i := 0; i < v.len(); i++ {
		if d, _ := v.dTx(i); d >= th {
			out = append(out, v.port(i))
		}
	}
	return out, -1
}

func nvListAppend(_ Host, args []rval, line int32) (rval, error) {
	v, err := listArg(args, 2, "list_append(list, value)", line)
	if err != nil && len(args) == 2 {
		err = fmt.Errorf("core: list_append: first argument is %s (line %d)", typeNameR(args[0]), line)
	}
	if err != nil {
		return rval{}, err
	}
	l := v.l
	if v.b != nil {
		l = v.b.List()
	}
	out := make(List, 0, len(l)+1)
	out = append(out, l...)
	return rref(append(out, args[1].box())), nil
}

func nvListLen(_ Host, args []rval, line int32) (rval, error) {
	v, err := listArg(args, 1, "list_len(list)", line)
	if err != nil {
		return rval{}, err
	}
	return rint(int64(v.len())), nil
}

func nvListEmpty(_ Host, args []rval, line int32) (rval, error) {
	v, err := listArg(args, 1, "is_list_empty(list)", line)
	if err != nil {
		return rval{}, err
	}
	return rbool(v.len() == 0), nil
}

func nvListContains(_ Host, args []rval, line int32) (rval, error) {
	v, err := listArg(args, 2, "list_contains(list, value)", line)
	if err != nil {
		return rval{}, err
	}
	for i := 0; i < v.len(); i++ {
		if eqR(v.at(i), args[1]) {
			return rbool(true), nil
		}
	}
	return rbool(false), nil
}

func nvListGet(_ Host, args []rval, line int32) (rval, error) {
	v, err := listArg(args, 2, "list_get(list, index)", line)
	if err != nil {
		return rval{}, err
	}
	idx, ok := asFloatR(args[1])
	if !ok {
		return rval{}, fmt.Errorf("core: list_get index must be numeric (line %d)", line)
	}
	i := int(idx)
	if i < 0 || i >= v.len() {
		return rval{}, fmt.Errorf("core: list_get index %d out of range [0,%d) (line %d)", i, v.len(), line)
	}
	return v.at(i), nil
}

// nvListClear takes any arguments and ignores them.
func nvListClear(Host, []rval, int32) (rval, error) { return rref(zeroListVal), nil }

// nvGetHH is the paper's abstracted getHH helper: given a list of
// PortStats records and a byte threshold, return the ports whose
// transmitted bytes since the last poll reach the threshold. On a
// port-statistics poll batch the answer is the batch's (memoised).
func nvGetHH(_ Host, args []rval, line int32) (rval, error) {
	v, err := listArg(args, 2, "getHH(stats, threshold)", line)
	if err != nil {
		return rval{}, err
	}
	th, ok := asFloatR(args[1])
	if !ok {
		return rval{}, fmt.Errorf("core: getHH threshold must be numeric (line %d)", line)
	}
	if v.b != nil && v.b.l == portStatsLayout {
		return rref(v.b.hitters(th)), nil
	}
	hitters, bad := v.hitters(th)
	if bad >= 0 {
		return rval{}, fmt.Errorf("core: getHH expects PortStats records, got %s (line %d)", typeNameR(v.at(bad)), line)
	}
	return rref(hitters), nil
}

// nvMapNew takes any arguments and ignores them.
func nvMapNew(Host, []rval, int32) (rval, error) { return rref(NewMap()), nil }

// The map builtins are MapVal's methods on unboxed arguments.

// mapArg reads a map builtin's first argument after checking the
// argument count.
func mapArg(args []rval, n int, usage string, line int32) (*MapVal, error) {
	if err := arity(args, n, usage, line); err != nil {
		return nil, err
	}
	m, ok := args[0].ref.(*MapVal)
	if !ok {
		return nil, fmt.Errorf("core: %s needs a map, got %s (line %d)", usageName(usage), typeNameR(args[0]), line)
	}
	return m, nil
}

func nvMapGet(_ Host, args []rval, line int32) (rval, error) {
	m, err := mapArg(args, 3, "map_get(map, key, default)", line)
	if err != nil {
		return rval{}, err
	}
	if i := m.find(&args[1]); i >= 0 {
		return m.slots[i].val, nil
	}
	return args[2], nil
}

func nvMapSet(_ Host, args []rval, line int32) (rval, error) {
	m, err := mapArg(args, 3, "map_set(map, key, value)", line)
	if err != nil {
		return rval{}, err
	}
	m.set(&args[1], &args[2])
	return args[0], nil
}

func nvMapHas(_ Host, args []rval, line int32) (rval, error) {
	m, err := mapArg(args, 2, "map_has(map, key)", line)
	if err != nil {
		return rval{}, err
	}
	return rbool(m.find(&args[1]) >= 0), nil
}

func nvMapDel(_ Host, args []rval, line int32) (rval, error) {
	m, err := mapArg(args, 2, "map_del(map, key)", line)
	if err != nil {
		return rval{}, err
	}
	m.del(&args[1])
	return args[0], nil
}

func nvMapLen(_ Host, args []rval, line int32) (rval, error) {
	m, err := mapArg(args, 1, "map_len(map)", line)
	if err != nil {
		return rval{}, err
	}
	return rint(int64(m.Len())), nil
}

func nvMapKeys(_ Host, args []rval, line int32) (rval, error) {
	m, err := mapArg(args, 1, "map_keys(map)", line)
	if err != nil {
		return rval{}, err
	}
	return rref(m.keyList()), nil
}

func nvNow(h Host, args []rval, line int32) (rval, error) {
	if len(args) != 0 {
		return rval{}, fmt.Errorf("core: now() takes no arguments (line %d)", line)
	}
	return rfloat(float64(h.Now().Milliseconds())), nil
}

func nvStr(_ Host, args []rval, line int32) (rval, error) {
	if err := arity(args, 1, "str(value)", line); err != nil {
		return rval{}, err
	}
	if args[0].k == rkStr {
		return args[0], nil
	}
	return rstr(string(appendR(nil, &args[0]))), nil
}

func nvLogMsg(h Host, args []rval, _ int32) (rval, error) {
	parts := make([]any, len(args))
	for i := range args {
		parts[i] = string(appendR(nil, &args[i]))
	}
	h.Log("%v", parts)
	return rval{k: rkNil}, nil
}
