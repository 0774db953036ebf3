package core

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/sketch"
)

// formatValueOracle is FormatValue as it was before AppendValue, kept
// verbatim (string concatenation and fmt throughout) as the reference
// the appending formatter must reproduce byte for byte: message sizes,
// snapshot sizes and the catalogue digests are all lengths or hashes of
// this text.
func formatValueOracle(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case string:
		return fmt.Sprintf("%q", x)
	case *Batch:
		return formatValueOracle(x.List())
	case List:
		s := "["
		for i, e := range x {
			if i > 0 {
				s += ", "
			}
			s += formatValueOracle(e)
		}
		return s + "]"
	case *MapVal:
		s := "{"
		for i, k := range x.Keys() {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%s: %s", k, formatValueOracle(x.field(k.(string)).box()))
		}
		return s + "}"
	case StructVal:
		names := append([]string(nil), x.L.Names...)
		sort.Strings(names)
		s := x.Type() + "{"
		for i, n := range names {
			if i > 0 {
				s += ", "
			}
			v, _ := x.Get(n)
			s += fmt.Sprintf("%s: %s", n, formatValueOracle(v))
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

// fmtString draws text that needs escaping: quotes, backslashes,
// control bytes, multi-byte runes and invalid UTF-8.
func fmtString(rng *rand.Rand) string {
	parts := []string{"a", "key", `"`, `\`, "\n", "\t", "\x00", "\x7f", "é", "日本", "\U0001F600", "\xff", "\xc3", " ", "{", "}", ", ", ": "}
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(parts[rng.Intn(len(parts))])
	}
	return b.String()
}

var fmtFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1.5, 0.1,
	1e21, 1e20, 1e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-300,
}

var fmtLayouts = []*Layout{
	LayoutOf("Point", []string{"y", "x"}),
	LayoutOf("Rec", []string{"b", "a", "c", "aa", "B"}),
	LayoutOf("Empty", nil),
	portStatsLayout,
}

// fmtValue draws a random value of every kind FormatValue knows, nested
// up to depth.
func fmtValue(rng *rand.Rand, depth int) Value {
	k := rng.Intn(18)
	if depth <= 0 {
		k = rng.Intn(10)
	}
	switch k {
	case 0:
		return nil
	case 1:
		return []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64, rng.Int63() - rng.Int63()}[rng.Intn(8)]
	case 2:
		if rng.Intn(2) == 0 {
			return fmtFloats[rng.Intn(len(fmtFloats))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	case 3:
		return rng.Intn(2) == 0
	case 4, 5:
		return fmtString(rng)
	case 6:
		return FilterVal{F: dataplane.Filter{DstPort: uint16(rng.Intn(100)), Proto: dataplane.ProtoTCP}, PortAny: rng.Intn(3) == 0}
	case 7:
		return ActionVal([]dataplane.Action{dataplane.ActAllow, dataplane.ActDrop}[rng.Intn(2)])
	case 8:
		return PacketVal(dataplane.Packet{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(256))}), DstIP: netip.MustParseAddr("fe80::1"),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 53, Proto: dataplane.ProtoUDP, Size: 100,
		})
	case 9:
		return ResourcesVal(&netmodel.Vector{netmodel.ResVCPU: rng.Float64(), netmodel.ResRAM: float64(rng.Intn(512))})
	case 10:
		s := sketch.NewCountMin(1+rng.Intn(300), 1+rng.Intn(5))
		s.Add(fmtString(rng), uint64(rng.Intn(1e6)))
		return SketchVal{S: s}
	case 11:
		d := sketch.NewDistinct(64)
		for n := rng.Intn(50); n > 0; n-- {
			d.Add(fmt.Sprint(rng.Intn(1000)))
		}
		return DistinctVal{D: d}
	case 12:
		_, b := testBatches(rng, rng.Intn(4))
		return b
	case 13, 14:
		l := make(List, rng.Intn(5))
		for i := range l {
			l[i] = fmtValue(rng, depth-1)
		}
		return l
	case 15, 16:
		// Small maps and maps past the formatter's on-stack key order.
		m := NewMap()
		n := rng.Intn(12)
		if rng.Intn(4) == 0 {
			n = 30 + rng.Intn(20)
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprint(rng.Intn(300))
			if rng.Intn(3) == 0 {
				key = fmtString(rng)
			}
			m.Set(key, fmtValue(rng, depth-1))
		}
		return m
	default:
		l := fmtLayouts[rng.Intn(len(fmtLayouts))]
		v := make([]Value, len(l.Names))
		for i := range v {
			v[i] = fmtValue(rng, depth-1)
		}
		return StructVal{L: l, V: v}
	}
}

// TestAppendValueMatchesFormatValue: the appending formatter writes
// exactly the oracle's text for random nested values, appended after
// whatever the buffer already holds.
func TestAppendValueMatchesFormatValue(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	prefix := []byte("prefix|")
	kinds := map[string]int{}
	for i := 0; i < 20_000; i++ {
		v := fmtValue(rng, 1+rng.Intn(3))
		kinds[TypeName(v)]++
		want := formatValueOracle(v)
		if got := FormatValue(v); got != want {
			t.Fatalf("value %d (%s):\n got %q\nwant %q", i, TypeName(v), got, want)
		}
		buf := append(make([]byte, 0, rng.Intn(64)), prefix...)
		if got := AppendValue(buf, v); string(got) != string(prefix)+want {
			t.Fatalf("value %d appended after a prefix:\n got %q\nwant %q", i, got, string(prefix)+want)
		}
	}
	for _, k := range []string{"nil", "long", "float", "bool", "string", "list", "map", "struct", "filter", "action", "packet", "resources", "sketch", "distinct"} {
		if kinds[k] < 200 {
			t.Fatalf("weak generator: %d top-level values of type %s (%v)", kinds[k], k, kinds)
		}
	}
}

// TestAppendValueAllocs: sizing a report into a buffer that is already
// big enough allocates nothing for the values seeds send: lists of
// longs, maps of counters, structs of numbers and strings.
func TestAppendValueAllocs(t *testing.T) {
	m := NewMap()
	for i := 0; i < 20; i++ {
		m.Set(fmt.Sprint(i*37), int64(i*1_000_003))
	}
	rec := StructVal{L: fmtLayouts[1], V: []Value{int64(1), 2.5, "x", true, List{int64(7)}}}
	for _, v := range []Value{List{int64(3), int64(17), int64(48)}, m, rec, "a \"quoted\" string"} {
		buf := make([]byte, 0, 4096)
		if allocs := testing.AllocsPerRun(100, func() { buf = AppendValue(buf[:0], v) }); allocs != 0 {
			t.Fatalf("AppendValue(%s): %.0f allocations, want 0", FormatValue(v), allocs)
		}
	}
}
