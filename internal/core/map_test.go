package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mapStormSource exercises everything a handler can do with a map that
// depends on the map being one shared, mutable object: two names for one
// map, inner maps fetched by map_get and written in place, delete and
// reinsert under the other spelling of a key (7 and "7"), keys of every
// type, nil values, the default of an absent key, key lists held across
// later writes, and maps sent and then written.
const mapStormSource = `
machine Storm {
  place all;
  poll ins = Poll { .ival = 10, .what = port ANY };
  poll del = Poll { .ival = 10, .what = port ANY };
  poll keys = Poll { .ival = 10, .what = port ANY };
  poll nest = Poll { .ival = 10, .what = port ANY };
  poll odd = Poll { .ival = 10, .what = port ANY };
  poll ship = Poll { .ival = 10, .what = port ANY };
  poll wipe = Poll { .ival = 10, .what = port ANY };
  map m; map alias; map outer; map oddKeys;
  list held; list now;
  long hits; long sum; long n; long viaField; long absentField;
  bool nilPresent; bool sameMap;
  state s {
    when (enter) do { alias = m; }
    when (ins as v) do {
      map_set(alias, v, map_get(m, v, 0) + 1000);
      map_set(m, "k" + str(v), map_get(alias, "k" + str(v), 0) + v);
      if (map_has(alias, str(v))) then { hits = hits + 1; }
      if (map_get(m, str(v), 0) <> map_get(alias, v, 1)) then { hits = hits + 100; }
      n = map_len(alias);
      sameMap = m == alias;
    }
    when (del as v) do {
      m = map_del(m, v);
      sum = sum + map_get(alias, v, 0 - 1);
      if (v > 0) then { m = map_set(m, str(v), 5); }
      now = map_keys(m);
    }
    when (keys as v) do { held = map_keys(m); }
    when (nest as v) do {
      long g = v / 4;
      map inner = map_get(outer, g, map_new());
      map_set(inner, v, map_get(inner, v, 0) + 70000);
      outer = map_set(outer, g, inner);
      map again = map_get(outer, str(g), map_new());
      n = map_len(again) + map_len(map_get(outer, "absent", map_new()));
      if (v == 0 - 3) then { outer = map_del(outer, g); }
    }
    when (odd as v) do {
      oddKeys = map_set(oddKeys, v * 0.5, v);
      oddKeys = map_set(oddKeys, v > 0, 2.5);
      oddKeys = map_set(oddKeys, [v], "list key");
      oddKeys = map_set(oddKeys, "nil", exec("nothing", 0));
      nilPresent = map_has(oddKeys, "nil") and (map_get(oddKeys, "nil", 7) == exec("nothing", 0));
      if (map_has(oddKeys, str(v * 0.5))) then { hits = hits + 1000; }
      viaField = m.k3;
      absentField = alias.nosuch;
    }
    when (ship as v) do {
      send m to harvester;
      send outer to harvester;
      map_set(m, "after-send", v);
      map inner = map_get(outer, 0, map_new());
      map_set(inner, "after-send", v);
    }
    when (wipe as v) do {
      if (v > 8) then { m = map_new(); }
      alias = m;
      if (v < 0 - 6) then { outer = map_new(); oddKeys = map_new(); }
    }
  }
}
`

// TestMapAliasingStorm drives both executors through the map storm and
// also checks, on each executor alone, the two promises a shared
// representation could break without the executors disagreeing: a key
// list a handler holds stays what it was through later inserts and
// deletes, and a map that was sent is not changed by writes that follow.
func TestMapAliasingStorm(t *testing.T) {
	cm := parityCompile(t, mapStormSource, "Storm")
	p := newBackendSet(t, cm, nil)
	p.do(t, "start", func(r Runner) error { return r.Start() })
	rng := rand.New(rand.NewSource(24))
	triggers := []string{"ins", "ins", "ins", "ins", "del", "del", "keys", "nest", "nest", "odd", "ship", "wipe"}
	edge := []int64{math.MaxInt64, math.MinInt64, 255, 256, 99, 100, 123456}
	heldWant := make([]string, len(p.rs))
	sentWant := make([][]string, len(p.rs))
	for j, r := range p.rs {
		v, _ := r.Var("held")
		heldWant[j] = FormatValue(v)
	}
	for i := 0; i < 3000; i++ {
		trig := triggers[rng.Intn(len(triggers))]
		v := int64(rng.Intn(25) - 12)
		if rng.Intn(40) == 0 {
			v = edge[rng.Intn(len(edge))]
		}
		ctx := fmt.Sprintf("step %d (%s %d)", i, trig, v)
		if err := p.do(t, ctx, func(r Runner) error { return r.HandleTrigger(trig, v) }); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for j, r := range p.rs {
			held, _ := r.Var("held")
			if got := FormatValue(held); trig == "keys" {
				heldWant[j] = got
			} else if got != heldWant[j] {
				t.Fatalf("%s: %s: held key list changed under later writes\nwas %s\nnow %s", ctx, parityBackends[j], heldWant[j], got)
			}
			for _, m := range p.hs[j].sent[len(sentWant[j]):] {
				sentWant[j] = append(sentWant[j], FormatValue(m.v))
			}
		}
		if i%41 == 0 {
			diffSet(t, p, ctx)
		}
		if i%397 == 0 {
			// Snapshot -> Restore -> Snapshot is the identity on each
			// executor, then each restores the other's snapshot.
			snaps := make([]Snapshot, len(p.rs))
			for j, r := range p.rs {
				before := fingerprint(r)
				snaps[j] = r.Snapshot()
				if err := r.Restore(snaps[j]); err != nil {
					t.Fatalf("%s: %s: restore own snapshot: %v", ctx, parityBackends[j], err)
				}
				if after := fingerprint(r); after != before {
					t.Fatalf("%s: %s: snapshot round trip changed the seed\n--- before ---\n%s--- after ---\n%s", ctx, parityBackends[j], before, after)
				}
			}
			for j, r := range p.rs {
				if err := r.Restore(snaps[(j+1)%len(p.rs)]); err != nil {
					t.Fatalf("%s: cross-restore into %s: %v", ctx, parityBackends[j], err)
				}
			}
			diffSet(t, p, ctx+" after cross-restore")
		}
	}
	diffSet(t, p, "final")
	for j := range p.rs {
		if len(sentWant[j]) < 100 { // two per ship
			t.Fatalf("weak storm: %s sent %d maps", parityBackends[j], len(sentWant[j]))
		}
		for i, m := range p.hs[j].sent {
			if got := FormatValue(m.v); got != sentWant[j][i] {
				t.Fatalf("%s: sent value %d changed after delivery\nwas %s\nnow %s", parityBackends[j], i, sentWant[j][i], got)
			}
		}
	}
	if v, _ := p.rs[1].Var("hits"); v == int64(0) {
		t.Fatal("weak storm: no key was ever found under its other spelling")
	}
}

// mapCounterSource is the flow-size-dist handler shape: count bytes per
// key on every sample, then at report time walk map_keys into a small
// histogram, ship it, and start over.
const mapCounterSource = `
machine Counter {
  place all;
  poll sample = Poll { .ival = 1, .what = port ANY };
  poll report = Poll { .ival = 1000, .what = port ANY };
  map flowBytes;
  state collect {
    when (sample as k) do {
      flowBytes = map_set(flowBytes, k, map_get(flowBytes, k, 0) + 700);
    }
    when (report as now) do {
      map hist = map_new();
      list fs = map_keys(flowBytes);
      long i = 0;
      while (i < list_len(fs)) {
        long bytes = map_get(flowBytes, list_get(fs, i), 0);
        long bucket = floor(log2(bytes + 1));
        map_set(hist, bucket, map_get(hist, bucket, 0) + 1);
        i = i + 1;
      }
      send hist to harvester;
      flowBytes = map_new();
    }
  }
}
`

// BenchmarkMapCounter: one op is one report period on the register VM —
// 256 samples over 32 flows (string keys, as p.flow and p.srcIP are),
// then the report.
func BenchmarkMapCounter(b *testing.B) {
	cm := benchCompile(b, mapCounterSource, "Counter")
	host := newMockHost()
	r, err := newParityRunner("register", cm, nil, host)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Start(); err != nil {
		b.Fatal(err)
	}
	keys := make([]Value, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.0.%d.1:80>10.1.0.%d:443/tcp", i, i)
	}
	// Flow j is sampled about j/2 times a period, so the sizes spread
	// over several histogram buckets.
	samples := make([]Value, 256)
	for s := range samples {
		samples[s] = keys[int(math.Sqrt(float64(4*s)))]
	}
	var tick Value = int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range samples {
			if err := r.HandleTrigger("sample", k); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.HandleTrigger("report", tick); err != nil {
			b.Fatal(err)
		}
		host.sent = host.sent[:0]
	}
}

// TestMapAgainstOracle runs random operations on a MapVal and on a plain
// Go map of boxed values — the shape a map had before it got slots — and
// requires the same entries, the same rendering byte for byte, and the
// same answers from Equal and CloneValue at every size on both sides of
// the scan/index threshold.
func TestMapAgainstOracle(t *testing.T) {
	render := func(o map[string]Value) string {
		s := "{"
		for i, k := range sortedKeys(o) {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%s: %s", k, FormatValue(o[k]))
		}
		return s + "}"
	}
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 200; round++ {
		m, oracle := NewMap(), map[string]Value{}
		domain := 2 + rng.Intn(30)
		for step := 0; step < 120; step++ {
			var key rval
			switch n := int64(rng.Intn(domain)); rng.Intn(4) {
			case 0:
				key = rstr(fmt.Sprint(n)) // the string of a long's digits
			case 1:
				key = rfloat(float64(n) + 0.5)
			default:
				key = rint(n * n * n)
			}
			text := keyString(key.box())
			switch rng.Intn(6) {
			case 0:
				m.del(&key)
				delete(oracle, text)
			case 1:
				v, ok := m.Get(text)
				w, present := oracle[text]
				if ok != present || !Equal(v, w) {
					t.Fatalf("round %d: Get(%q) = %v, %v; oracle has %v, %v", round, text, v, ok, w, present)
				}
				if (m.find(&key) >= 0) != present {
					t.Fatalf("round %d: find(%q) disagrees with the oracle", round, text)
				}
			default:
				v := randValue(rng, 1)
				val := unbox(v)
				m.set(&key, &val)
				oracle[text] = v
			}
			if m.Len() != len(oracle) {
				t.Fatalf("round %d: %d entries, oracle has %d", round, m.Len(), len(oracle))
			}
		}
		if got, want := FormatValue(m), render(oracle); got != want {
			t.Fatalf("round %d: renders\n%s\nwant\n%s", round, got, want)
		}
		if got, want := FormatValue(m.Keys()), FormatValue(List(boxStrings(sortedKeys(oracle)))); got != want {
			t.Fatalf("round %d: keys %s, want %s", round, got, want)
		}
		c := CloneValue(m).(*MapVal)
		if !Equal(m, c) || !Equal(c, m) || FormatValue(c) != FormatValue(m) {
			t.Fatalf("round %d: clone differs: %s vs %s", round, FormatValue(c), FormatValue(m))
		}
		if m.Len() > 0 {
			k := rstr(m.Keys()[rng.Intn(m.Len())].(string))
			if rng.Intn(2) == 0 {
				c.del(&k)
			} else {
				v := rstr("changed")
				c.set(&k, &v)
			}
			if Equal(m, c) || Equal(c, m) {
				t.Fatalf("round %d: maps that differ in %q compare equal", round, k.asStr())
			}
			if FormatValue(m) != render(oracle) {
				t.Fatalf("round %d: writing the clone changed the original", round)
			}
		}
	}
}

func boxStrings(ss []string) []Value {
	out := make([]Value, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// TestMapUpdateAllocs: the counter update every Tab. I task is built on,
// m = map_set(m, k, map_get(m, k, 0) + 1) on a key the map already has,
// allocates nothing — whatever the count (a long outside 0..255 was one
// box per store) and whatever the key (a long outside 0..99 was one key
// string per store) — on a scanned map and on an indexed one.
func TestMapUpdateAllocs(t *testing.T) {
	src := `
machine C {
  place all;
  poll bump = Poll { .ival = 1, .what = port ANY };
  map m;
  state s {
    when (bump as k) do { m = map_set(m, k, map_get(m, k, 0) + 1); }
  }
}`
	for _, size := range []int{3, 64} {
		for _, key := range []Value{"10.0.0.1:4242>10.0.1.1:80/tcp", int64(100), int64(123456789), int64(-7)} {
			prog, err := Compile(parityCompile(t, src, "C"))
			if err != nil {
				t.Fatal(err)
			}
			r, err := prog.NewRunner(nil, newMockHost())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < size; i++ {
				r.HandleTrigger("bump", fmt.Sprintf("filler-%d", i))
			}
			for i := 0; i < 300; i++ { // past 256: the count no longer has a shared box
				r.HandleTrigger("bump", key)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := r.HandleTrigger("bump", key); err != nil {
					t.Fatal(err)
				}
			})
			m, _ := r.Var("m")
			if n, _ := m.(*MapVal).Get(keyString(key)); n != int64(501) || m.(*MapVal).Len() != size {
				t.Fatalf("key %v: count %v in a map of %d, want 501 in %d", key, n, m.(*MapVal).Len(), size)
			}
			if allocs != 0 {
				t.Errorf("counter update, %d keys, key %v: %.1f allocs per update, want 0", size, key, allocs)
			}
		}
	}
}

// TestMapKeysAllocs: map_keys costs nothing per key. On a map whose key
// set is the one the list it last handed out holds — after value
// updates, after an insert and a delete that cancel out, after a reset
// and a refill with the same keys — it returns that list; when the key
// set really changed it makes one new list: the slice, and the header
// that boxes a slice as a Value.
func TestMapKeysAllocs(t *testing.T) {
	for _, size := range []int{2, 16, 256} {
		m := NewMap()
		fill := func() {
			for i := 0; i < size; i++ {
				k, v := rstr(fmt.Sprintf("key-%03d", (i*37)%size)), rint(int64(i))
				m.set(&k, &v)
			}
		}
		fill()
		args := []rval{rref(m)}
		first, _ := nvMapKeys(nil, args, 1)
		if l := first.ref.(List); len(l) != size || !slices.IsSortedFunc(l, func(a, b Value) int { return strings.Compare(a.(string), b.(string)) }) {
			t.Fatalf("%d keys: map_keys = %s", size, FormatValue(l))
		}
		k, v := rstr("key-000"), rint(1000)
		if allocs := testing.AllocsPerRun(100, func() {
			m.set(&k, &v) // an update, not an insert
			nvMapKeys(nil, args, 1)
		}); allocs != 0 {
			t.Errorf("%d keys: map_keys on an unchanged key set allocates %.1f, want 0", size, allocs)
		}
		extra := rstr("zzz")
		if allocs := testing.AllocsPerRun(100, func() {
			m.set(&extra, &v)
			m.del(&extra)
			nvMapKeys(nil, args, 1)
		}); allocs != 0 {
			t.Errorf("%d keys: map_keys after an insert and a delete of one key allocates %.1f, want 0", size, allocs)
		}
		m.reset()
		if got, _ := nvMapKeys(nil, args, 1); len(got.ref.(List)) != 0 {
			t.Fatalf("%d keys: map_keys of a reset map = %s", size, FormatValue(got.ref))
		}
		fill()
		if again, _ := nvMapKeys(nil, args, 1); FormatValue(again.ref) != FormatValue(first.ref) || &again.ref.(List)[0] != &first.ref.(List)[0] {
			t.Fatalf("%d keys: after a reset and a refill map_keys = %s, want the list it handed out before, %s", size, FormatValue(again.ref), FormatValue(first.ref))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			m.set(&extra, &v)
			nvMapKeys(nil, args, 1)
			m.del(&extra)
			nvMapKeys(nil, args, 1)
		}); allocs > 4 {
			t.Errorf("%d keys: map_keys after a changed key set allocates %.1f per change, want <= 2 whatever the size", size, allocs/2)
		}
		if again, _ := nvMapKeys(nil, args, 1); FormatValue(again.ref) != FormatValue(first.ref) {
			t.Fatalf("%d keys: key list changed: %s, was %s", size, FormatValue(again.ref), FormatValue(first.ref))
		}
	}
}
