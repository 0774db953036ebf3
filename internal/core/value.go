// Package core implements the seed runtime: executable state machines
// compiled from Almanac (§II-B-a of the FARM paper). A Seed holds the
// machine's variables and current state, reacts to triggers (poll,
// probe, time), messages, and reallocation events, and performs local
// (re)actions — state transitions, TCAM updates, sends — through a Host
// interface implemented by the soil.
package core

import (
	"fmt"
	"sort"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// Value is an Almanac runtime value. The concrete types are:
//
//	int64            int/long
//	float64          float
//	bool             bool
//	string           string
//	List             list
//	MapVal           map (string-keyed)
//	FilterVal        filter
//	ActionVal        action
//	PacketVal        packet
//	StructVal        user/runtime structs (incl. poll records)
//	ResourcesVal     the res() result
//
// A poll result enters HandleTrigger as a *Batch, which stands for the
// List of StructVal records it materialises to; the functions below
// treat it as that list. A probe's packet may enter HandleTrigger as a
// *PacketVal the caller lends for the call: the runner reads it in
// place and copies it wherever it keeps it, so the caller may overwrite
// the packet once HandleTrigger returns. Nothing but HandleTrigger takes
// that form.
type Value any

// List is an Almanac list.
type List []Value

// MapVal is an Almanac map with string keys.
type MapVal map[string]Value

// FilterVal wraps a packet filter; PortAny marks `port ANY`.
type FilterVal struct {
	F       dataplane.Filter
	PortAny bool
}

// ActionVal is a data-plane action (drop, rate-limit, ...).
type ActionVal dataplane.Action

// PacketVal is a sampled packet.
type PacketVal dataplane.Packet

// ResourcesVal is the allocation returned by res().
type ResourcesVal netmodel.Resources

// TypeName returns a human-readable type tag for diagnostics.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case int64:
		return "long"
	case float64:
		return "float"
	case bool:
		return "bool"
	case string:
		return "string"
	case List, *Batch:
		return "list"
	case MapVal:
		return "map"
	case FilterVal:
		return "filter"
	case ActionVal:
		return "action"
	case PacketVal:
		return "packet"
	case StructVal:
		return "struct"
	case ResourcesVal:
		return "resources"
	case SketchVal:
		return "sketch"
	case DistinctVal:
		return "distinct"
	}
	return fmt.Sprintf("%T", v)
}

// Truthy converts a value to a boolean condition.
func Truthy(v Value) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	case nil:
		return false, nil
	}
	return false, fmt.Errorf("core: %s is not usable as a condition", TypeName(v))
}

// AsFloat widens numeric values.
func AsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Equal compares two values structurally.
func Equal(a, b Value) bool {
	if x, ok := a.(*Batch); ok {
		a = x.List()
	}
	if y, ok := b.(*Batch); ok {
		b = y.List()
	}
	if fa, ok := AsFloat(a); ok {
		if fb, ok2 := AsFloat(b); ok2 {
			return fa == fb
		}
		return false
	}
	switch x := a.(type) {
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case nil:
		return b == nil
	case FilterVal:
		y, ok := b.(FilterVal)
		return ok && x == y
	case ActionVal:
		y, ok := b.(ActionVal)
		return ok && x == y
	case PacketVal:
		y, ok := b.(PacketVal)
		return ok && x == y
	case List:
		y, ok := b.(List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case MapVal:
		y, ok := b.(MapVal)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, present := y[k]
			if !present || !Equal(v, w) {
				return false
			}
		}
		return true
	case StructVal:
		y, ok := b.(StructVal)
		if !ok || len(x.V) != len(y.V) {
			return false
		}
		if x.L == y.L {
			for i := range x.V {
				if !Equal(x.V[i], y.V[i]) {
					return false
				}
			}
			return true
		}
		// Different layouts (e.g. different field order from two
		// compilation sites): compare by name, like the old map form.
		if x.Type() != y.Type() {
			return false
		}
		for i, n := range x.L.Names {
			w, present := y.Get(n)
			if !present || !Equal(x.V[i], w) {
				return false
			}
		}
		return true
	}
	return false
}

// CloneValue deep-copies a value (used for migration snapshots and
// message passing between seeds, which must not share mutable state).
func CloneValue(v Value) Value {
	switch x := v.(type) {
	case *Batch:
		return x.List()
	case List:
		out := make(List, len(x))
		for i, e := range x {
			out[i] = CloneValue(e)
		}
		return out
	case MapVal:
		out := make(MapVal, len(x))
		for k, e := range x {
			out[k] = CloneValue(e)
		}
		return out
	case StructVal:
		out := make([]Value, len(x.V))
		for i, e := range x.V {
			out[i] = CloneValue(e)
		}
		return StructVal{L: x.L, V: out}
	case ResourcesVal:
		return ResourcesVal(netmodel.Resources(x).Clone())
	case SketchVal:
		return SketchVal{S: x.S.Clone()}
	case DistinctVal:
		return DistinctVal{D: x.D.Clone()}
	default:
		return v // scalars and immutable wrappers
	}
}

// FormatValue renders a value deterministically for logs and tests.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case string:
		return fmt.Sprintf("%q", x)
	case *Batch:
		return FormatValue(x.List())
	case List:
		s := "["
		for i, e := range x {
			if i > 0 {
				s += ", "
			}
			s += FormatValue(e)
		}
		return s + "]"
	case MapVal:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := "{"
		for i, k := range keys {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%s: %s", k, FormatValue(x[k]))
		}
		return s + "}"
	case StructVal:
		// Render sorted by field name, independent of layout order, so
		// digests and golden logs stay stable across layouts.
		names := append([]string(nil), x.L.Names...)
		sort.Strings(names)
		s := x.Type() + "{"
		for i, n := range names {
			if i > 0 {
				s += ", "
			}
			v, _ := x.Get(n)
			s += fmt.Sprintf("%s: %s", n, FormatValue(v))
		}
		return s + "}"
	case FilterVal:
		if x.PortAny {
			return "filter(port ANY)"
		}
		return x.F.String()
	case ActionVal:
		return dataplane.Action(x).String()
	case PacketVal:
		return dataplane.Packet(x).Flow().String()
	case SketchVal:
		return fmt.Sprintf("sketch(%dx%d,total=%d)", x.S.Width(), x.S.Depth(), x.S.Total())
	case DistinctVal:
		return fmt.Sprintf("distinct(~%.0f)", x.D.Estimate())
	default:
		return fmt.Sprintf("%v", x)
	}
}
