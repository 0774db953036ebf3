// Package core implements the seed runtime: executable state machines
// compiled from Almanac (§II-B-a of the FARM paper). A Seed holds the
// machine's variables and current state, reacts to triggers (poll,
// probe, time), messages, and reallocation events, and performs local
// (re)actions — state transitions, TCAM updates, sends — through a Host
// interface implemented by the soil.
package core

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

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
//	*MapVal          map (keyed by text)
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

// MapVal is an Almanac map, the one representation both executors use.
// A key is text: a string is its own, a long its decimal digits, any
// other value what FormatValue makes of it, so 7 and "7" name one entry.
// Entries live in slots — the key's text boxed once, the value unboxed —
// and a store to an existing key is a lookup and a slot write, no
// allocation whatever the value. A map is a reference: every name it was
// assigned to, and every map_get that fetched it from another map, sees
// the same slots. The zero MapVal is an empty map.
type MapVal struct {
	slots []mapSlot
	idx   map[string]int32 // key text -> slot; nil while the slots are few enough to scan
	// keys is the sorted key List map_keys last handed out, boxed, or nil.
	// It outlives inserts, deletes and resets: keysStale says the key set
	// may have changed since, and map_keys hands it out again if the keys
	// turn out to be the same (keysStale means nothing while keys is nil).
	keys      Value
	keysStale bool
}

type mapSlot struct {
	key Value // a string
	val rval  // never a poll batch, a row of one or a lent packet
}

// mapScanMax is the size up to which a lookup compares the slots' keys
// one by one instead of hashing: most maps a handler nests inside
// another hold a handful of entries and never need an index.
const mapScanMax = 8

// NewMap returns an empty map.
func NewMap() *MapVal { return &MapVal{} }

// Len returns the number of entries.
func (m *MapVal) Len() int { return len(m.slots) }

// Set stores v under the key text key.
func (m *MapVal) Set(key string, v Value) {
	k, val := rstr(key), unbox(v)
	m.set(&k, &val)
}

// keyList is Keys as map_keys returns it: boxed, and kept, so a handler
// that walks a map whose key set is the one it walked last time — after
// value updates, inserts and deletes that cancel out, or a reset and a
// refill — gets the same list. Lists handed out are never written again.
func (m *MapVal) keyList() Value {
	if len(m.slots) == 0 {
		return zeroListVal
	}
	if m.keys == nil || m.keysStale && !m.sameKeys() {
		m.keys = m.sortedKeys()
	}
	m.keysStale = false
	return m.keys
}

func (m *MapVal) sortedKeys() List {
	l := make(List, len(m.slots))
	for i := range m.slots {
		l[i] = m.slots[i].key
	}
	slices.SortFunc(l, func(a, b Value) int { return strings.Compare(a.(string), b.(string)) })
	return l
}

// sameKeys reports whether the kept key list holds exactly the map's
// keys: as many, and each slot's key found in it (keys are distinct on
// both sides, so that is set equality).
func (m *MapVal) sameKeys() bool {
	l := m.keys.(List)
	if len(l) != len(m.slots) {
		return false
	}
	for i := range m.slots {
		if _, ok := slices.BinarySearchFunc(l, m.slots[i].key.(string), func(e Value, k string) int {
			return strings.Compare(e.(string), k)
		}); !ok {
			return false
		}
	}
	return true
}

// reset empties the map in place, keeping its slot array, its index and
// its kept key list: `x = map_new()` on a map variable nothing else can
// reach (almanac's private maps).
func (m *MapVal) reset() {
	clear(m.slots)
	m.slots = m.slots[:0]
	clear(m.idx)
	m.keysStale = true
}

func (m *MapVal) lookup(key string) int {
	if m.idx != nil {
		if i, ok := m.idx[key]; ok {
			return int(i)
		}
		return -1
	}
	for i := range m.slots {
		if m.slots[i].key.(string) == key {
			return i
		}
	}
	return -1
}

// smallKeyText is the boxed text of the long keys handlers insert over
// and over into short-lived maps: port numbers, histogram buckets, group
// ids.
var smallKeyText = func() (t [256]Value) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// keyText is the one place that says what a key's text is (sketches and
// distinct counters key the same way).
func keyText(k *rval) string {
	switch k.k {
	case rkStr:
		return k.asStr()
	case rkInt:
		return strconv.FormatInt(k.i, 10)
	}
	return FormatValue(k.box())
}

// find returns the slot of key k, or -1. A long's digits are read off
// the stack, so a lookup allocates nothing. (Keys and values travel by
// pointer through these methods: an rval is 40 bytes, and the counter
// update that is most of what seeds do with maps is two calls deep.)
func (m *MapVal) find(k *rval) int {
	switch k.k {
	case rkStr:
		return m.lookup(k.asStr())
	case rkInt:
		var buf [20]byte
		return m.lookup(string(strconv.AppendInt(buf[:0], k.i, 10)))
	}
	return m.lookup(keyText(k))
}

// field is m.name in Almanac: the entry's value, nil when absent.
func (m *MapVal) field(name string) rval {
	if i := m.lookup(name); i >= 0 {
		return m.slots[i].val
	}
	return rval{k: rkNil}
}

func (m *MapVal) set(k, v *rval) {
	val := v.materialised()
	if i := m.find(k); i >= 0 {
		m.slots[i].val = val
		return
	}
	var key Value
	switch {
	case k.k == rkStr:
		key = k.ref // the box the key arrived in
	case k.k == rkInt && uint64(k.i) < uint64(len(smallKeyText)):
		key = smallKeyText[k.i]
	default:
		key = keyText(k)
	}
	if m.slots == nil {
		// Most maps that get an entry get a few: skip append's 1, 2, 4.
		m.slots = make([]mapSlot, 0, 4)
	}
	m.slots = append(m.slots, mapSlot{key, val})
	if m.idx != nil {
		m.idx[key.(string)] = int32(len(m.slots) - 1)
	} else if len(m.slots) > mapScanMax {
		m.idx = make(map[string]int32, 2*len(m.slots))
		for i := range m.slots {
			m.idx[m.slots[i].key.(string)] = int32(i)
		}
	}
	m.keysStale = true
}

// del removes key k by moving the last slot into its place: slot order
// is nothing a program can see (map_keys sorts).
func (m *MapVal) del(k *rval) {
	i := m.find(k)
	if i < 0 {
		return
	}
	last := len(m.slots) - 1
	if m.idx != nil {
		delete(m.idx, m.slots[i].key.(string))
		if i != last {
			m.idx[m.slots[last].key.(string)] = int32(i)
		}
	}
	m.slots[i] = m.slots[last]
	m.slots[last] = mapSlot{}
	m.slots = m.slots[:last]
	m.keysStale = true
}

// FilterVal wraps a packet filter; PortAny marks `port ANY`.
type FilterVal struct {
	F       dataplane.Filter
	PortAny bool
}

// ActionVal is a data-plane action (drop, rate-limit, ...).
type ActionVal dataplane.Action

// PacketVal is a sampled packet.
type PacketVal dataplane.Packet

// ResourcesVal is the allocation returned by res(): the seed's grant,
// which nobody writes (see Host.Resources).
type ResourcesVal = *netmodel.Vector

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
	case *MapVal:
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
	case *MapVal:
		y, ok := b.(*MapVal)
		if !ok || len(x.slots) != len(y.slots) {
			return false
		}
		for i := range x.slots {
			j := y.lookup(x.slots[i].key.(string))
			if j < 0 || !eqR(x.slots[i].val, y.slots[j].val) {
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
	case *MapVal:
		out := &MapVal{slots: make([]mapSlot, len(x.slots)), idx: maps.Clone(x.idx), keys: x.keys, keysStale: x.keysStale}
		for i, s := range x.slots {
			if s.val.k == rkRef {
				s.val.ref = CloneValue(s.val.ref)
			}
			out.slots[i] = s
		}
		return out
	case StructVal:
		out := make([]Value, len(x.V))
		for i, e := range x.V {
			out[i] = CloneValue(e)
		}
		return StructVal{L: x.L, V: out}
	case SketchVal:
		return SketchVal{S: x.S.Clone()}
	case DistinctVal:
		return DistinctVal{D: x.D.Clone()}
	default:
		return v // scalars and immutable wrappers
	}
}

// sendValue is what a send hands its host for r: a value that no later
// write by the sender can reach. A poll batch, a row of one or a lent
// packet materialises to a private copy, which is copy enough. A list
// holding only scalars and strings (or lists of those) has nothing a
// program can write — no builtin writes a list in place, and field
// assignment writes only structs — so it goes as the box it is.
// Everything else is deep-copied.
func sendValue(r rval) Value {
	switch r.k {
	case rkBatch, rkRow, rkPacket:
		return r.box()
	case rkRef:
		if l, ok := r.ref.(List); ok && scalarList(l) {
			return r.ref
		}
	}
	return CloneValue(r.box())
}

// scalarList reports whether l holds only scalars, strings and lists of
// those.
func scalarList(l List) bool {
	for _, e := range l {
		switch x := e.(type) {
		case nil, int64, float64, bool, string:
		case List:
			if !scalarList(x) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// FormatValue renders a value deterministically for logs and tests.
func FormatValue(v Value) string { return string(AppendValue(nil, v)) }

// AppendValue appends FormatValue's text of v to dst and returns the
// extended slice. Sizing a message by the text's length into a reused
// buffer builds no string: scalars, lists, maps and structs append in
// place.
func AppendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "nil"...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(dst, x)
	case string:
		return strconv.AppendQuote(dst, x)
	case *Batch:
		return AppendValue(dst, x.List())
	case List:
		dst = append(dst, '[')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendValue(dst, e)
		}
		return append(dst, ']')
	case *MapVal:
		// Entries in key order: the slots sorted by key text, in place on
		// the stack for the maps handlers report.
		var buf [32]int32
		order := buf[:0]
		if len(x.slots) > len(buf) {
			order = make([]int32, 0, len(x.slots))
		}
		for i := range x.slots {
			order = append(order, int32(i))
		}
		slices.SortFunc(order, func(a, b int32) int {
			return strings.Compare(x.slots[a].key.(string), x.slots[b].key.(string))
		})
		dst = append(dst, '{')
		for n, i := range order {
			if n > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, x.slots[i].key.(string)...)
			dst = append(dst, ": "...)
			dst = appendR(dst, &x.slots[i].val)
		}
		return append(dst, '}')
	case StructVal:
		// Sorted by field name, independent of layout order, so digests
		// and golden logs stay stable across layouts.
		dst = append(dst, x.Type()...)
		dst = append(dst, '{')
		for n, i := range x.L.sorted {
			if n > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, x.L.Names[i]...)
			dst = append(dst, ": "...)
			dst = AppendValue(dst, x.V[i])
		}
		return append(dst, '}')
	case FilterVal:
		if x.PortAny {
			return append(dst, "filter(port ANY)"...)
		}
		return append(dst, x.F.String()...)
	case ActionVal:
		return append(dst, dataplane.Action(x).String()...)
	case PacketVal:
		return dataplane.Packet(x).Flow().AppendTo(dst)
	case SketchVal:
		dst = append(dst, "sketch("...)
		dst = strconv.AppendInt(dst, int64(x.S.Width()), 10)
		dst = append(dst, 'x')
		dst = strconv.AppendInt(dst, int64(x.S.Depth()), 10)
		dst = append(dst, ",total="...)
		dst = strconv.AppendUint(dst, x.S.Total(), 10)
		return append(dst, ')')
	case DistinctVal:
		dst = append(dst, "distinct(~"...)
		dst = strconv.AppendFloat(dst, x.D.Estimate(), 'f', 0, 64)
		return append(dst, ')')
	default:
		return fmt.Appendf(dst, "%v", x)
	}
}

// appendR is AppendValue of r.box() without boxing a scalar.
func appendR(dst []byte, r *rval) []byte {
	switch r.k {
	case rkNil:
		return append(dst, "nil"...)
	case rkInt:
		return strconv.AppendInt(dst, r.i, 10)
	case rkFloat:
		return strconv.AppendFloat(dst, r.f, 'g', -1, 64)
	case rkBool:
		return strconv.AppendBool(dst, r.i != 0)
	}
	return AppendValue(dst, r.box())
}
