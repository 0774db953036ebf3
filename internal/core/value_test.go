package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"farm/internal/dataplane"
)

// randValue builds a random value tree of bounded depth.
func randValue(rng *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Intn(1000) - 500)
		case 1:
			return rng.Float64() * 100
		case 2:
			return rng.Intn(2) == 0
		default:
			return string(rune('a' + rng.Intn(26)))
		}
	}
	switch rng.Intn(6) {
	case 0:
		n := rng.Intn(4)
		l := make(List, n)
		for i := range l {
			l[i] = randValue(rng, depth-1)
		}
		return l
	case 1:
		// Up to 11 entries: both sides of the scan/index threshold.
		m := NewMap()
		for i := 0; i < rng.Intn(12); i++ {
			m.Set(string(rune('a'+rng.Intn(16))), randValue(rng, depth-1))
		}
		return m
	case 2:
		return StructOf("T", map[string]Value{"x": randValue(rng, depth-1)})
	case 3:
		return FilterVal{F: dataplane.Filter{DstPort: uint16(rng.Intn(100))}}
	case 4:
		return ActionVal(dataplane.ActDrop)
	default:
		return randValue(rng, 0)
	}
}

// Property: Equal is reflexive on arbitrary value trees.
func TestEqualReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		v := randValue(rng, 3)
		if !Equal(v, v) {
			t.Fatalf("value not equal to itself: %s", FormatValue(v))
		}
	}
}

// Property: CloneValue produces an Equal value whose mutation does not
// affect the original.
func TestClonePreservesEqualityAndIsolates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		v := randValue(rng, 3)
		c := CloneValue(v)
		if !Equal(v, c) {
			t.Fatalf("clone differs:\n  v=%s\n  c=%s", FormatValue(v), FormatValue(c))
		}
		// Mutate every mutable container in the clone.
		mutate(c)
		// The original must render identically to a fresh clone-check
		// baseline: compare via a second clone taken before mutation is
		// not available, so instead verify mutation did not leak by
		// checking against the original's own format, captured first.
	}
	// Directed isolation checks (the random walk above can't easily
	// capture before/after).
	orig := NewMap()
	orig.Set("k", List{int64(1)})
	orig.Set("s", StructOf("T", map[string]Value{"f": int64(2)}))
	inner := NewMap()
	inner.Set("n", int64(3))
	orig.Set("m", inner)
	c := CloneValue(orig).(*MapVal)
	at := func(m *MapVal, key string) Value {
		v, _ := m.Get(key)
		return v
	}
	at(c, "k").(List)[0] = int64(99)
	at(c, "s").(StructVal).Set("f", int64(99))
	at(c, "m").(*MapVal).Set("n", int64(99))
	c.Set("extra", true)
	if at(orig, "k").(List)[0] != int64(1) {
		t.Fatal("list mutation leaked into the original")
	}
	if f, _ := at(orig, "s").(StructVal).Get("f"); f != int64(2) {
		t.Fatal("struct mutation leaked into the original")
	}
	if n := at(inner, "n"); n != int64(3) || orig.Len() != 3 {
		t.Fatalf("map mutation leaked into the original: %s", FormatValue(orig))
	}
}

func mutate(v Value) {
	switch x := v.(type) {
	case List:
		if len(x) > 0 {
			x[0] = int64(123456)
		}
	case *MapVal:
		x.Set("__mutated", true)
	case StructVal:
		if len(x.V) > 0 {
			x.V[0] = int64(123456)
		}
	}
}

// Property: FormatValue is deterministic (same value renders the same
// twice — map ordering must be stable).
func TestFormatDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		v := randValue(rng, 3)
		if FormatValue(v) != FormatValue(v) {
			t.Fatal("non-deterministic rendering")
		}
	}
}

// Property: numeric Equal treats int64 and float64 with equal magnitude
// as equal, and AsFloat round-trips small integers.
func TestNumericEquivalence(t *testing.T) {
	f := func(n int32) bool {
		v := int64(n)
		fl, ok := AsFloat(v)
		if !ok {
			return false
		}
		return Equal(v, fl) && int64(fl) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Truthy never errors on bool/int/float and matches Go truth.
func TestTruthyNumbers(t *testing.T) {
	f := func(n int16, x float32) bool {
		b1, err1 := Truthy(int64(n))
		b2, err2 := Truthy(float64(x))
		b3, err3 := Truthy(n != 0)
		return err1 == nil && err2 == nil && err3 == nil &&
			b1 == (n != 0) && b2 == (x != 0) && b3 == (n != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Truthy(List{}); err == nil {
		t.Fatal("list must not be truthy-convertible")
	}
}

func TestPortStatsRecordDeltas(t *testing.T) {
	cur := dataplane.PortStats{TxBytes: 1000, TxPackets: 10, RxBytes: 500, RxPackets: 5}
	prev := dataplane.PortStats{TxBytes: 400, TxPackets: 4, RxBytes: 100, RxPackets: 1}
	rec := PortStatsRecord(7, cur, prev)
	if p, _ := rec.Get("port"); p != int64(7) {
		t.Fatalf("port = %v", p)
	}
	dtx, _ := rec.Get("dTxBytes")
	drx, _ := rec.Get("dRxPkts")
	if dtx != int64(600) || drx != int64(4) {
		t.Fatalf("deltas = %s", FormatValue(rec))
	}
}

func TestRuleStatsRecordDeltas(t *testing.T) {
	rec := RuleStatsRecord(
		dataplane.RuleStats{Packets: 10, Bytes: 1000},
		dataplane.RuleStats{Packets: 3, Bytes: 300},
	)
	dp, _ := rec.Get("dPackets")
	db, _ := rec.Get("dBytes")
	if dp != int64(7) || db != int64(700) {
		t.Fatalf("deltas = %s", FormatValue(rec))
	}
}
