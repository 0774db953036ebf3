package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"farm/internal/almanac"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/sketch"
)

// The runtime library has one production implementation per name, on
// unboxed arguments; the boxed twins in oracle_builtins_test.go are its
// reference. These tests call every builtin both ways — the VM through its
// dispatch loop, the twin on the boxed arguments — and require the same
// value or the same error string, the same effect on the arguments and the
// same host calls.

// libSource mentions every builtin, so a program compiled from it links
// them all.
func libSource() string {
	var b strings.Builder
	b.WriteString("function lib() {\n")
	for _, n := range BuiltinNames() {
		fmt.Fprintf(&b, "  %s();\n", n)
	}
	b.WriteString("}\nmachine Lib { place all; state s { when (enter) do { } } }\n")
	return b.String()
}

// builtinVM calls builtins through the register VM's dispatch loop: one
// extra chunk of the library program is rewritten per call to the
// instruction lowering emits for that name and argument count, and run on
// a fresh runner.
type builtinVM struct {
	prog *Program
	ci   int32
}

func newBuiltinVM(t testing.TB) *builtinVM {
	t.Helper()
	prog, err := Compile(parityCompile(t, libSource(), "Lib"))
	if err != nil {
		t.Fatal(err)
	}
	prog.p.RegChunks = append(prog.p.RegChunks, almanac.RegChunk{})
	return &builtinVM{prog: prog, ci: int32(len(prog.p.RegChunks) - 1)}
}

func (v *builtinVM) call(t testing.TB, h Host, name string, args []rval, line int32) (rval, error) {
	t.Helper()
	ni := int32(slices.Index(v.prog.p.Names, name))
	if ni < 0 {
		t.Fatalf("builtin %s is not linked into the library program", name)
	}
	r, err := v.prog.NewRunner(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(len(args))
	in := almanac.RInstr{Op: almanac.RCallB2, A: ni, B: -1, C: -1, Dst: n, Line: line}
	switch {
	case n > 2:
		in.Op, in.B, in.C = almanac.RCallB, 0, n
	case name == "list_len" && n == 1:
		in.Op, in.B = almanac.RListLen, 0
	case name == "list_get" && n == 2:
		in.Op, in.B, in.C = almanac.RListGet, 0, 1
	default:
		if n >= 1 {
			in.B = 0
		}
		if n == 2 {
			in.C = 1
		}
	}
	v.prog.p.RegChunks[v.ci] = almanac.RegChunk{
		NumRegs: n + 1, NumLocals: n,
		Code: []almanac.RInstr{in, {Op: almanac.RReturn, A: n}},
	}
	res, err := r.(*rvmSeed).runChunk(v.ci, args)
	return res.val, err
}

// sameValue is Equal plus FormatValue and TypeName; values Equal does not
// relate to themselves (NaN, sketches) are compared by their text.
func sameValue(a, b Value) bool {
	return TypeName(a) == TypeName(b) && FormatValue(a) == FormatValue(b) && (Equal(a, b) || !Equal(a, a))
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkBuiltin calls one builtin on the VM and on its boxed twin, each
// with its own arguments from gen, and fails unless both return the same
// value or the same error, leave their arguments alike and make the same
// host calls.
func checkBuiltin(t testing.TB, vm *builtinVM, name string, gen func() []rval) {
	t.Helper()
	va, oa := gen(), gen()
	boxed := make([]Value, len(oa))
	text := make([]string, len(oa))
	for i := range oa {
		boxed[i] = oa[i].box()
		text[i] = typeNameR(oa[i]) + " " + FormatValue(boxed[i])
	}
	ctx := fmt.Sprintf("%s(%s)", name, strings.Join(text, ", "))
	hv, ho := newMockHost(), newMockHost()
	got, gerr := vm.call(t, hv, name, va, 7)
	want, werr := builtins[name](machineHost{ho, "Lib"}, boxed, 7)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: error diverged\nvm:   %v\ntwin: %v", ctx, gerr, werr)
	}
	if gerr == nil && !sameValue(got.box(), want) {
		t.Fatalf("%s: vm = %s %s, twin = %s %s", ctx, typeNameR(got), FormatValue(got.box()), TypeName(want), FormatValue(want))
	}
	for i := range va {
		if a, b := va[i].box(), boxed[i]; !sameValue(a, b) {
			t.Fatalf("%s: argument %d left as %s by the vm, %s by the twin", ctx, i+1, FormatValue(a), FormatValue(b))
		}
	}
	if a, b := hostTrace(hv), hostTrace(ho); a != b {
		t.Fatalf("%s: host calls diverged\n--- vm ---\n%s--- twin ---\n%s", ctx, a, b)
	}
}

// Argument builders. Each call builds fresh values, so the two sides of a
// check never share a mutable one.

func probePortBatch(n int) *Batch {
	ports := make([]int, n)
	stats := make([]dataplane.PortStats, n)
	for i := range ports {
		ports[i] = i + 1
		stats[i].TxBytes = uint64(i%4) * 700
		stats[i].RxBytes = uint64(i)
	}
	return NewPortStatsBatch(ports, stats, nil, nil)
}

func probeList() rval { return rref(List{int64(1), "k1", 2.5, int64(2)}) }

func probeMap() rval {
	m := NewMap()
	m.Set("a", int64(1))
	m.Set("7", int64(2))
	m.Set("c", List{int64(3)})
	return rref(m)
}

func probeSketch() rval {
	s := sketch.NewCountMin(16, 2)
	s.Add("k", 3)
	return rref(SketchVal{S: s})
}

func probeDistinct() rval {
	d := sketch.NewDistinct(64)
	d.Add("a")
	return rref(DistinctVal{D: d})
}

func probeFilter() rval { return rref(FilterVal{F: dataplane.Filter{DstPort: 80}}) }

func probeAction() rval { return rref(ActionVal(dataplane.ActDrop)) }

func probeRule(pattern, act Value) rval {
	return rref(StructVal{L: ruleLayout, V: []Value{pattern, act, int64(9)}})
}

func probePacket() rval {
	pv := &PacketVal{SrcPort: 4242, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 1500}
	return rval{k: rkPacket, ref: pv}
}

// builtinProbes is what every argument position of every builtin is
// tried with: each representation the VM hands a builtin (a poll batch, a
// row of one, a lent packet), a boxed value of every type, and the
// numeric corner cases.
func builtinProbes() []rval {
	b := probePortBatch(6)
	return []rval{
		{k: rkNil}, rint(0), rint(2), rint(-1), rfloat(1.5), rfloat(-2.5),
		rfloat(math.NaN()), rfloat(math.Inf(1)), rbool(true), rstr(""), rstr("k1"),
		rref(List(nil)), probeList(), probeMap(),
		{k: rkBatch, ref: b}, {k: rkRow, i: 2, ref: b},
		{k: rkBatch, ref: NewRuleStatsBatch(dataplane.RuleStats{Packets: 3, Bytes: 300}, nil, nil)},
		probePacket(), rref(PacketVal{DstPort: 53, Proto: dataplane.ProtoUDP}),
		probeFilter(), rref(FilterVal{PortAny: true}), probeAction(),
		rref(StructOf("Rec", map[string]Value{"key": "k1", "n": int64(4)})),
		probeRule(FilterVal{F: dataplane.Filter{DstPort: 22}}, ActionVal(dataplane.ActRateLimit)),
		probeSketch(), probeDistinct(),
		rref(ResourcesVal(&netmodel.Vector{netmodel.ResVCPU: 2})),
	}
}

func args(a ...rval) func() []rval {
	return func() []rval { return slices.Clone(a) }
}

// builtinRow is one builtin's cases: a well-formed call, whose every
// argument position is tried with every probe, and the calls worth
// making beyond that. Both are generators, so every check gets fresh
// values.
type builtinRow struct {
	good  func() []rval
	extra []func() []rval
}

func builtinTable() map[string]builtinRow {
	b := func(n int) rval { return rval{k: rkBatch, ref: probePortBatch(n)} }
	anyArity := builtinRow{good: args(), extra: []func() []rval{
		func() []rval { return []rval{rint(1), rstr("x"), probeList()} },
	}}
	num1 := func(x rval) builtinRow {
		return builtinRow{good: args(x), extra: []func() []rval{
			args(rint(0)), args(rint(-1)), args(rfloat(-0.5)), args(rfloat(math.NaN())),
			args(rfloat(math.Inf(-1))), args(rint(math.MinInt64)), args(rint(8), rint(1)),
			args(rint(8), rstr("x")), args(rfloat(2.5), rint(3)),
		}}
	}
	minMax := builtinRow{
		good: args(rint(3), rfloat(1.5), rint(-2)),
		extra: []func() []rval{
			args(rint(1), rint(2)), args(rint(4)), args(rfloat(2)), args(rfloat(math.NaN()), rint(1)),
			args(rint(1), rfloat(math.NaN())), args(rint(math.MaxInt64), rint(math.MaxInt64-1)),
			args(rint(1), rint(2), rstr("x")), args(rfloat(math.Inf(-1)), rint(0)),
		},
	}
	t := map[string]builtinRow{
		"res": {good: args()},
		"addTCAMRule": {good: func() []rval { return []rval{probeFilter(), probeAction(), rint(5)} }, extra: []func() []rval{
			func() []rval { return []rval{probeFilter(), probeAction()} },
			func() []rval { return []rval{probeFilter(), probeAction(), rfloat(2.5)} },
			func() []rval {
				return []rval{probeRule(FilterVal{F: dataplane.Filter{DstPort: 80}}, ActionVal(dataplane.ActDrop))}
			},
			func() []rval { return []rval{probeRule(int64(1), ActionVal(dataplane.ActDrop))} },
			func() []rval { return []rval{probeRule(FilterVal{}, "drop")} },
			func() []rval {
				return []rval{rref(StructOf("Rule", map[string]Value{"pattern": FilterVal{}, "act": ActionVal(dataplane.ActMirror)}))}
			},
			func() []rval {
				return []rval{rref(StructOf("Rule", map[string]Value{"pattern": FilterVal{}, "act": ActionVal(dataplane.ActMirror), "priority": 2.5}))}
			},
		}},
		"removeTCAMRule": {good: func() []rval { return []rval{probeFilter()} }},
		"getTCAMRule":    {good: func() []rval { return []rval{probeFilter()} }},
		"exec": {good: args(rstr("cmd"), rint(1)), extra: []func() []rval{
			args(rstr("cmd")), func() []rval { return []rval{rstr("cmd"), probePacket(), rint(2)} },
		}},
		"drop": anyArity, "allow": anyArity, "rateLimit": anyArity,
		"mirror": anyArity, "countAct": anyArity, "setQoS": anyArity,
		"min": minMax, "max": minMax,
		"abs":   num1(rint(-3)),
		"log":   num1(rfloat(8)),
		"log2":  num1(rint(8)),
		"floor": num1(rfloat(3.9)),
		"list_append": {good: func() []rval { return []rval{probeList(), rint(9)} }, extra: []func() []rval{
			args(rval{k: rkNil}, rint(1)), func() []rval { return []rval{b(3), probePacket()} },
		}},
		"list_len":      {good: func() []rval { return []rval{probeList()} }, extra: []func() []rval{func() []rval { return []rval{b(0)} }}},
		"is_list_empty": {good: func() []rval { return []rval{probeList()} }, extra: []func() []rval{func() []rval { return []rval{b(0)} }}},
		"list_contains": {good: func() []rval { return []rval{probeList(), rstr("k1")} }, extra: []func() []rval{
			func() []rval { return []rval{probeList(), rfloat(2)} },
			func() []rval { return []rval{probeList(), rint(3)} },
			func() []rval { return []rval{rref(List{int64(2)}), rfloat(2)} },
			func() []rval {
				bb := probePortBatch(4)
				return []rval{{k: rkBatch, ref: bb}, {k: rkRow, i: 3, ref: bb}}
			},
		}},
		"list_get": {good: func() []rval { return []rval{probeList(), rint(1)} }, extra: []func() []rval{
			func() []rval { return []rval{probeList(), rint(4)} },
			func() []rval { return []rval{probeList(), rint(-1)} },
			func() []rval { return []rval{probeList(), rfloat(1.9)} },
			func() []rval { return []rval{probeList(), rfloat(-0.5)} },
			func() []rval { return []rval{probeList(), rfloat(1e300)} },
			func() []rval { return []rval{probeList(), rint(1 << 40)} },
			func() []rval { return []rval{b(6), rint(5)} },
			func() []rval { return []rval{b(6), rint(6)} },
			func() []rval { return []rval{b(0), rint(0)} },
			args(rref(List(nil)), rint(0)), args(rval{k: rkNil}, rint(0)),
		}},
		"list_clear": {good: func() []rval { return []rval{probeList()} }, extra: []func() []rval{args(), args(rint(1), rint(2), rint(3))}},
		"map_new":    anyArity,
		"map_get": {good: func() []rval { return []rval{probeMap(), rstr("a"), rint(0)} }, extra: []func() []rval{
			func() []rval { return []rval{probeMap(), rint(7), rval{k: rkNil}} },
			func() []rval { return []rval{probeMap(), rfloat(7), probePacket()} },
			func() []rval { return []rval{probeMap(), rstr("zz"), b(2)} },
		}},
		"map_set": {good: func() []rval { return []rval{probeMap(), rstr("b"), rint(2)} }, extra: []func() []rval{
			func() []rval {
				bb := probePortBatch(3)
				return []rval{probeMap(), {k: rkRow, i: 1, ref: bb}, probePacket()}
			},
			func() []rval { return []rval{probeMap(), rint(7), b(2)} },
		}},
		"map_has":  {good: func() []rval { return []rval{probeMap(), rstr("a")} }, extra: []func() []rval{func() []rval { return []rval{probeMap(), rint(7)} }}},
		"map_del":  {good: func() []rval { return []rval{probeMap(), rstr("a")} }, extra: []func() []rval{func() []rval { return []rval{probeMap(), rfloat(7)} }}},
		"map_len":  {good: func() []rval { return []rval{probeMap()} }},
		"map_keys": {good: func() []rval { return []rval{probeMap()} }, extra: []func() []rval{func() []rval { return []rval{rref(NewMap())} }}},
		"now":      {good: args()},
		"str":      {good: args(rint(42)), extra: []func() []rval{args(rstr("s")), func() []rval { return []rval{b(2)} }}},
		"log_msg": {good: args(rstr("x"), rint(1)), extra: []func() []rval{
			func() []rval { return []rval{{k: rkNil}, b(2), probePacket()} },
		}},
		"getHH": {good: func() []rval { return []rval{b(8), rint(1000)} }, extra: []func() []rval{
			func() []rval { return []rval{b(8), rfloat(math.NaN())} },
			func() []rval { return []rval{b(0), rint(1)} },
			func() []rval { return []rval{rref(probePortBatch(8).List()), rint(700)} },
			func() []rval { return []rval{rref(List{probePortBatch(2).record(1), int64(3)}), rint(0)} },
			func() []rval {
				return []rval{{k: rkBatch, ref: NewRuleStatsBatch(dataplane.RuleStats{Packets: 1}, nil, nil)}, rint(0)}
			},
			args(rref(List(nil)), rint(1)),
		}},
		// The dimensions around the size bound stay allocatable without it.
		"sketch_new": {good: args(rint(64), rint(3)), extra: []func() []rval{
			args(rint(4096), rint(512)), args(rint(1<<17), rint(8)), args(rint(1<<17+1), rint(8)),
			args(rint(8), rint(1<<17)), args(rint(2), rint(1<<17)), args(rint(2), rint(1<<17+1)),
			args(rint(1<<20), rint(1)), args(rint(1<<20), rint(0)), args(rfloat(1<<20+0.5), rint(1)),
			args(rint(-5), rint(-5)), args(rfloat(math.NaN()), rint(4)), args(rint(4), rfloat(math.Inf(1))),
			args(rfloat(math.Inf(-1)), rint(1)), args(rfloat(1e300), rfloat(1e300)), args(rfloat(64.9), rfloat(2.9)),
		}},
		"sketch_add": {good: func() []rval { return []rval{probeSketch(), rstr("k"), rint(5)} }, extra: []func() []rval{
			func() []rval { return []rval{probeSketch(), rint(80), rfloat(2.5)} },
			func() []rval { return []rval{probeSketch(), rstr("k"), rint(-1)} },
			func() []rval { return []rval{probeSketch(), probePacket(), rint(0)} },
		}},
		"sketch_count": {good: func() []rval { return []rval{probeSketch(), rstr("k")} }, extra: []func() []rval{
			func() []rval { return []rval{probeSketch(), rint(80)} },
		}},
		"sketch_total": {good: func() []rval { return []rval{probeSketch()} }},
		"sketch_reset": {good: func() []rval { return []rval{probeSketch()} }},
		"distinct_new": {good: args(rint(128)), extra: []func() []rval{
			args(rint(1 << 20)), args(rint(1<<20 + 1)), args(rfloat(1<<20 + 0.5)), args(rint(1 << 21)),
			args(rint(-3)), args(rfloat(math.NaN())), args(rfloat(math.Inf(1))), args(rfloat(math.Inf(-1))),
		}},
		"distinct_add": {good: func() []rval { return []rval{probeDistinct(), rstr("b")} }, extra: []func() []rval{
			func() []rval { return []rval{probeDistinct(), rint(80)} },
		}},
		"distinct_estimate": {good: func() []rval { return []rval{probeDistinct()} }},
		"distinct_reset":    {good: func() []rval { return []rval{probeDistinct()} }},
	}
	return t
}

// TestBuiltinTable checks every builtin against its boxed twin: called
// with no arguments, with one too many, with every probe in every
// position of a well-formed call, and with the corner cases of its row —
// out-of-range, negative and NaN indices, empty lists, poll batches and
// their rows, lent packets, longs against floats, sizes around the
// sketch bound.
func TestBuiltinTable(t *testing.T) {
	vm := newBuiltinVM(t)
	table := builtinTable()
	names := BuiltinNames()
	for name := range table {
		if !slices.Contains(names, name) {
			t.Errorf("table row for %s, which is not a builtin", name)
		}
	}
	total := 0
	for _, name := range names {
		row, ok := table[name]
		if !ok {
			t.Errorf("builtin %s has no row in the table", name)
			continue
		}
		cases := []func() []rval{args(), row.good, func() []rval { return append(row.good(), rint(1)) }}
		for i := range row.good() {
			for j := range builtinProbes() {
				cases = append(cases, func() []rval {
					a := row.good()
					a[i] = builtinProbes()[j]
					return a
				})
			}
		}
		cases = append(cases, row.extra...)
		for _, gen := range cases {
			checkBuiltin(t, vm, name, gen)
		}
		total += len(cases)
	}
	if total < 1500 {
		t.Fatalf("%d calls checked: the table lost its probes", total)
	}
}

// fuzzArg decodes one argument: a boxed value from fuzzValue, a long or
// float from eight raw bytes (NaN, infinities and sizes beyond any bound
// included), or one of the in-place forms — a row of a poll batch, or a
// lent packet.
func fuzzArg(b *fuzzBytes) rval {
	word := func() uint64 {
		var w [8]byte
		for i := range w {
			w[i] = byte(b.next())
		}
		return binary.LittleEndian.Uint64(w[:])
	}
	switch b.next() % 6 {
	case 0:
		return rint(int64(word()))
	case 1:
		return rfloat(math.Float64frombits(word()))
	case 2:
		bt := probePortBatch(1 + b.next()%4)
		return rval{k: rkRow, i: int64(b.next() % bt.Len()), ref: bt}
	case 3:
		return rval{k: rkPacket, ref: &PacketVal{SrcPort: uint16(b.next()), DstPort: 80, Proto: dataplane.ProtoTCP, Size: b.next()}}
	default:
		return unbox(fuzzValue(b, 2))
	}
}

// FuzzBuiltins calls a builtin, chosen by index into BuiltinNames, with
// up to four decoded arguments on the VM and on its boxed twin. Neither
// may panic, and both must agree on the value or the error string, on
// what they did to their arguments and on the host calls they made.
func FuzzBuiltins(f *testing.F) {
	vm := newBuiltinVM(f)
	names := BuiltinNames()
	f.Add(uint8(0), []byte{})
	f.Add(uint8(slices.Index(names, "list_get")), []byte{2, 5, 1, 4, 4, 1, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(slices.Index(names, "getHH")), []byte{2, 5, 14, 3, 9, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, fn uint8, data []byte) {
		name := names[int(fn)%len(names)]
		b := fuzzBytes(data)
		n := b.next() % 5
		rest := fuzzBytes(slices.Clone(b))
		checkBuiltin(t, vm, name, func() []rval {
			d := rest
			a := make([]rval, n)
			for i := range a {
				a[i] = fuzzArg(&d)
			}
			return a
		})
	})
}
