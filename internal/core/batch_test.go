package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"farm/internal/dataplane"
)

// PortStatsRecord and RuleStatsRecord are the boxed record builders the
// soil used before poll results travelled as batches, kept verbatim as
// the oracle for what a batch materialises to.

func PortStatsRecord(port int, cur, prev dataplane.PortStats) StructVal {
	v := make([]Value, len(portStatsLayout.Names))
	v[psPort] = int64(port)
	v[psRxBytes] = int64(cur.RxBytes)
	v[psTxBytes] = int64(cur.TxBytes)
	v[psRxPkts] = int64(cur.RxPackets)
	v[psTxPkts] = int64(cur.TxPackets)
	v[psDRxBytes] = int64(cur.RxBytes - prev.RxBytes)
	v[psDTxBytes] = int64(cur.TxBytes - prev.TxBytes)
	v[psDRxPkts] = int64(cur.RxPackets - prev.RxPackets)
	v[psDTxPkts] = int64(cur.TxPackets - prev.TxPackets)
	return StructVal{L: portStatsLayout, V: v}
}

func RuleStatsRecord(cur, prev dataplane.RuleStats) StructVal {
	return StructVal{L: ruleStatsLayout, V: []Value{
		int64(cur.Packets),
		int64(cur.Bytes),
		int64(cur.Packets - prev.Packets),
		int64(cur.Bytes - prev.Bytes),
	}}
}

// testBatches builds two consecutive completions of an n-port poll from
// seeded random counters, the second with deltas against the first. The
// first is kept, as a handler holding it would keep it, so the second is
// a batch of its own.
func testBatches(rng *rand.Rand, n int) (first, second *Batch) {
	ports := make([]int, n)
	cur := make([]dataplane.PortStats, n)
	for i := range ports {
		ports[i] = i + 1
	}
	step := func() {
		for i := range cur {
			cur[i].RxPackets += uint64(rng.Intn(50))
			cur[i].RxBytes += uint64(rng.Intn(4000))
			cur[i].TxPackets += uint64(rng.Intn(50))
			cur[i].TxBytes += uint64(rng.Intn(4000))
		}
	}
	step()
	first = NewPortStatsBatch(ports, cur, nil, nil)
	first.kept = true
	step()
	second = NewPortStatsBatch(ports, cur, first, first)
	return first, second
}

// TestBatchMaterialisesToOracle pins the batch constructors to the boxed
// record builders they replaced: deltas against zero, against the
// previous batch, against a previous batch that polled other ports, and
// the counter-reset wrap-around.
func TestBatchMaterialisesToOracle(t *testing.T) {
	ports := []int{3, 1, 7}
	prev := []dataplane.PortStats{{RxPackets: 1, RxBytes: 100, TxPackets: 4, TxBytes: 400}, {TxBytes: 9}, {RxBytes: 5}}
	cur := []dataplane.PortStats{{RxPackets: 5, RxBytes: 500, TxPackets: 10, TxBytes: 1000}, {TxBytes: 3}, {RxBytes: 50}}
	b0 := NewPortStatsBatch(ports, prev, nil, nil)
	b0.kept = true // compared below, so not rewritten
	b1 := NewPortStatsBatch(ports, cur, b0, b0)
	var want0, want1 List
	for i, p := range ports {
		want0 = append(want0, PortStatsRecord(p, prev[i], dataplane.PortStats{}))
		want1 = append(want1, PortStatsRecord(p, cur[i], prev[i])) // port 1 wraps: 3 - 9
	}
	for _, c := range []struct {
		name string
		got  *Batch
		want List
	}{{"against zero", b0, want0}, {"against previous", b1, want1}} {
		if c.got.Len() != len(c.want) || FormatValue(c.got) != FormatValue(c.want) {
			t.Fatalf("%s:\n got %s\nwant %s", c.name, FormatValue(c.got), FormatValue(c.want))
		}
		for i, rec := range c.got.List() {
			if rec.(StructVal).L != portStatsLayout || !Equal(rec, c.want[i]) {
				t.Fatalf("%s: record %d = %s", c.name, i, FormatValue(rec))
			}
		}
	}
	// A previous batch that does not describe the same port (or is not a
	// port batch at all) contributes nothing.
	other := NewPortStatsBatch([]int{3, 2}, prev[:2], nil, nil)
	got := NewPortStatsBatch(ports, cur, other, other)
	want := List{PortStatsRecord(3, cur[0], prev[0]), PortStatsRecord(1, cur[1], dataplane.PortStats{}), PortStatsRecord(7, cur[2], dataplane.PortStats{})}
	if !Equal(got, want) {
		t.Fatalf("mismatched prev:\n got %s\nwant %s", FormatValue(got), FormatValue(want))
	}
	r0 := NewRuleStatsBatch(dataplane.RuleStats{Packets: 3, Bytes: 300}, nil, nil)
	if !Equal(NewPortStatsBatch(ports, cur, r0, r0), NewPortStatsBatch(ports, cur, nil, nil)) {
		t.Fatal("a rule batch was used as the base of port deltas")
	}
	r1 := NewRuleStatsBatch(dataplane.RuleStats{Packets: 10, Bytes: 1000}, r0, r0)
	wantR := List{RuleStatsRecord(dataplane.RuleStats{Packets: 10, Bytes: 1000}, dataplane.RuleStats{Packets: 3, Bytes: 300})}
	if !Equal(r1, wantR) || r1.Len() != 1 {
		t.Fatalf("rule batch = %s, want %s", FormatValue(r1), FormatValue(wantR))
	}
	if !Equal(NewRuleStatsBatch(dataplane.RuleStats{Packets: 10, Bytes: 1000}, b0, b0), NewRuleStatsBatch(dataplane.RuleStats{Packets: 10, Bytes: 1000}, nil, nil)) {
		t.Fatal("a port batch was used as the base of rule deltas")
	}
}

// TestBatchRewrittenUnlessKept: a poll's next completion is written over
// its previous batch unless a handler kept that one or the poll now has
// another number of records, and reads the same either way; a kept batch
// keeps reading its own completion.
func TestBatchRewrittenUnlessKept(t *testing.T) {
	ports := []int{3, 1, 7}
	cs := [][]dataplane.PortStats{
		{{TxBytes: 400, TxPackets: 4}, {TxBytes: 9}, {RxBytes: 5}},
		{{TxBytes: 1000, TxPackets: 10}, {TxBytes: 30}, {RxBytes: 50}},
		{{TxBytes: 1500, TxPackets: 11}, {TxBytes: 31}, {RxBytes: 70}},
		{{TxBytes: 1900, TxPackets: 12}, {TxBytes: 40}},
	}
	want := func(k, n int) List {
		var l List
		for i := 0; i < n; i++ {
			var was dataplane.PortStats
			if k > 0 {
				was = cs[k-1][i]
			}
			l = append(l, PortStatsRecord(ports[i], cs[k][i], was))
		}
		return l
	}
	check := func(what string, b *Batch, k, n int) {
		t.Helper()
		if w := want(k, n); !Equal(b, w) {
			t.Fatalf("%s:\n got %s\nwant %s", what, FormatValue(b), FormatValue(w))
		}
	}
	b0 := NewPortStatsBatch(ports, cs[0], nil, nil)
	b1 := NewPortStatsBatch(ports, cs[1], b0, b0)
	if b1 != b0 {
		t.Fatal("a batch nobody kept was not rewritten")
	}
	check("rewritten", b1, 1, 3)
	b1.kept = true
	b2 := NewPortStatsBatch(ports, cs[2], b1, b1)
	if b2 == b1 {
		t.Fatal("a kept batch was rewritten")
	}
	check("kept", b1, 1, 3)
	check("after a kept one", b2, 2, 3)
	b3 := NewPortStatsBatch(ports[:2], cs[3], b2, b2)
	if b3 == b2 {
		t.Fatal("a batch was rewritten with another number of records")
	}
	check("fewer ports", b3, 3, 2)

	r0 := NewRuleStatsBatch(dataplane.RuleStats{Packets: 3, Bytes: 300}, nil, nil)
	r1 := NewRuleStatsBatch(dataplane.RuleStats{Packets: 10, Bytes: 1000}, r0, r0)
	if r1 != r0 {
		t.Fatal("a rule batch nobody kept was not rewritten")
	}
	r1.kept = true
	r2 := NewRuleStatsBatch(dataplane.RuleStats{Packets: 12, Bytes: 1100}, r1, r1)
	wantR1 := List{RuleStatsRecord(dataplane.RuleStats{Packets: 10, Bytes: 1000}, dataplane.RuleStats{Packets: 3, Bytes: 300})}
	wantR2 := List{RuleStatsRecord(dataplane.RuleStats{Packets: 12, Bytes: 1100}, dataplane.RuleStats{Packets: 10, Bytes: 1000})}
	if r2 == r1 || !Equal(r1, wantR1) || !Equal(r2, wantR2) {
		t.Fatalf("kept rule batch %s and its successor %s, want %s and %s", FormatValue(r1), FormatValue(r2), FormatValue(wantR1), FormatValue(wantR2))
	}

	// Deltas against an older completion, written over a third batch
	// nobody needs: the base still reads its own completion.
	base := NewPortStatsBatch(ports, cs[0], nil, nil)
	into := NewPortStatsBatch(ports, cs[1], nil, nil)
	got := NewPortStatsBatch(ports, cs[2], base, into)
	if got != into {
		t.Fatal("the batch to write into was not rewritten")
	}
	check("base", base, 0, 3)
	var wantSkip List
	for i, p := range ports {
		wantSkip = append(wantSkip, PortStatsRecord(p, cs[2][i], cs[0][i]))
	}
	if !Equal(got, wantSkip) {
		t.Fatalf("deltas over two completions:\n got %s\nwant %s", FormatValue(got), FormatValue(wantSkip))
	}
}

// TestBatchValueFunctions: the exported Value helpers see a batch as the
// list it stands for.
func TestBatchValueFunctions(t *testing.T) {
	_, b := testBatches(rand.New(rand.NewSource(1)), 5)
	l := b.List()
	// The same records built the way hosts and tests build structs:
	// sorted field order, a different interned layout.
	var sorted List
	for _, rec := range l {
		sv := rec.(StructVal)
		fields := map[string]Value{}
		for i, n := range sv.L.Names {
			fields[n] = sv.V[i]
		}
		sorted = append(sorted, StructOf("PortStats", fields))
	}
	if sorted[0].(StructVal).L == portStatsLayout {
		t.Fatal("StructOf produced the poll layout; the cross-layout comparison below would be vacuous")
	}
	for name, other := range map[string]Value{"its list": l, "sorted-layout list": sorted, "itself": b} {
		if !Equal(b, other) || !Equal(other, b) {
			t.Fatalf("batch != %s", name)
		}
	}
	short := l[:len(l)-1]
	changed := CloneValue(l).(List)
	changed[2].(StructVal).Set("dTxBytes", int64(-1))
	for name, other := range map[string]Value{"shorter list": short, "changed list": changed, "nil": nil, "number": int64(1), "record": l[0]} {
		if Equal(b, other) || Equal(other, b) {
			t.Fatalf("batch == %s", name)
		}
	}
	if got, want := FormatValue(b), FormatValue(l); got != want {
		t.Fatalf("FormatValue:\n got %s\nwant %s", got, want)
	}
	if got, want := TypeName(b), TypeName(l); got != want {
		t.Fatalf("TypeName = %s, want %s", got, want)
	}
	if _, err := Truthy(b); err == nil || err.Error() != "core: list is not usable as a condition" {
		t.Fatalf("Truthy error = %v", err)
	}
	c, ok := CloneValue(b).(List)
	if !ok || !Equal(c, l) {
		t.Fatalf("CloneValue = %T %s", CloneValue(b), FormatValue(c))
	}
	// Materialisations are private: a write to one reaches neither the
	// batch nor another materialisation.
	c[0].(StructVal).Set("port", int64(99))
	if !Equal(b, l) || !Equal(b.List(), l) {
		t.Fatal("a write to a materialised record changed the batch")
	}
}

// batchMachine wraps handler bodies for the poll triggers of
// TestBatchEquivalentToList.
const batchMachine = `
struct Wrap { PortStats rec; long tag; }
function total(list rs) {
  long i = 0;
  long t = 0;
  while (i < list_len(rs)) {
    PortStats r = list_get(rs, i);
    t = t + r.dTxBytes;
    i = i + 1;
  }
  return t;
}
function portOf(PortStats r) { return r.port; }
machine B {
  place all;
  poll stats = Poll { .ival = 10, .what = port ANY };
  poll rule = Poll { .ival = 10, .what = dstPort 80 };
  long out; long out2; bool flag; bool flag2; string text;
  list kept; list made; map m; PortStats keptRec; Wrap w;
  %s
  state s {
    %s
    when (stats as recs) do { %s }
    when (rule as recs) do { %s }
  }
}
`

// TestBatchEquivalentToList runs every consumer of poll data three ways —
// the interpreter and the register VM fed the batch, the register VM fed
// the batch's materialised list — and requires identical errors, state,
// host effects and action counts. Each case fires three completions of
// each trigger, so values kept across handlers are covered, and so are
// batches rewritten in place once nothing kept them.
func TestBatchEquivalentToList(t *testing.T) {
	type tc struct {
		name            string
		decls, stateVar string
		stats, rule     string
		wantErr         string // substring of the (identical) error, "" = none
	}
	cases := []tc{
		{name: "list_len", stats: "out = list_len(recs);", rule: "out2 = list_len(recs);"},
		{name: "is_list_empty", stats: "flag = is_list_empty(recs);"},
		{name: "list_get in range", stats: "keptRec = list_get(recs, 1); out = keptRec.port;"},
		{name: "list_get float index", stats: "PortStats r = list_get(recs, 2.7); out = r.port;"},
		{name: "list_get out of range", stats: "keptRec = list_get(recs, 6);", wantErr: "list_get index 6 out of range [0,6)"},
		{name: "list_get negative", stats: "keptRec = list_get(recs, 0 - 1);", wantErr: "out of range"},
		{name: "list_get string index", stats: `keptRec = list_get(recs, "0");`, wantErr: "index must be numeric"},
		{name: "unknown field", stats: "PortStats r = list_get(recs, 0); out = r.nosuch;", wantErr: "struct PortStats has no field nosuch"},
		{name: "unknown rule field", rule: "RuleStats r = list_get(recs, 0); out = r.port;", wantErr: "struct RuleStats has no field port"},
		{name: "field of the batch", stats: "out = recs.port;", wantErr: "list has no fields"},
		{name: "scan loop", stats: "out = total(recs);"},
		{name: "row as argument", stats: "out = portOf(list_get(recs, 3));"},
		{name: "getHH some", stats: "made = getHH(recs, 2000);"},
		{name: "getHH none", stats: "made = getHH(recs, 1000000);"},
		{name: "getHH all", stats: "made = getHH(recs, 0 - 1);"},
		{name: "getHH float threshold", stats: "made = getHH(recs, 1999.5);"},
		{name: "getHH foreign element", stats: "made = getHH(recs + [1], 0);", wantErr: "getHH expects PortStats records, got long"},
		{name: "getHH rule records", rule: "made = getHH(recs, 0);", wantErr: "getHH expects PortStats records, got struct"},
		{name: "getHH bad threshold", stats: `made = getHH(recs, "x");`, wantErr: "threshold must be numeric"},
		{name: "condition", stats: "if (recs) then { out = 1; }", wantErr: "list is not usable as a condition"},
		{name: "row condition", stats: "if (list_get(recs, 0)) then { out = 1; }", wantErr: "struct is not usable as a condition"},
		{name: "negate", stats: "out = -recs;", wantErr: "unary - on list"},
		{name: "arithmetic", stats: "out = recs * 2;", wantErr: "list * long is not defined"},
		{name: "row arithmetic", stats: "out = list_get(recs, 0) + 1;", wantErr: "struct + long is not defined"},
		{name: "concat", stats: "made = recs + recs; out = list_len(made); made = [0] + recs; out2 = list_len(recs + [1, 2]);"},
		{name: "equal to itself", stats: "flag = recs == recs; flag2 = recs <> recs;"},
		{name: "equal to kept", stats: "flag = recs == kept; flag2 = kept == recs; kept = recs;"},
		{name: "equal to other types", stats: `flag = recs == 1; flag2 = recs == "x"; if (recs == made) then { out = 1; } if (list_get(recs, 0) == recs) then { out = 2; }`},
		{name: "rows equal", stats: "flag = list_get(recs, 1) == list_get(recs, 1); flag2 = list_get(recs, 1) == list_get(recs, 2); if (keptRec <> list_get(recs, 0)) then { out = out + 1; } keptRec = list_get(recs, 0);"},
		{name: "list_contains", stats: "flag = list_contains(recs, list_get(recs, 4)); made = [list_get(recs, 5)]; flag2 = list_contains(made, list_get(recs, 5));"},
		{name: "str", stats: "text = str(recs) + str(list_get(recs, 0));"},
		{name: "log", stats: "log_msg(recs, list_get(recs, 1));"},
		{name: "send", stats: "send recs to harvester; send list_get(recs, 2) to harvester;", rule: "send recs to harvester;"},
		{name: "exec", stats: `exec("cmd", recs); exec("cmd", list_get(recs, 0));`},
		{name: "store and read next completion", stats: "if (list_len(kept) > 0) then { PortStats o = list_get(kept, 0); out = o.dTxBytes; out2 = keptRec.txBytes; } kept = recs; keptRec = list_get(recs, 0);"},
		{name: "state var", stateVar: "list held; PortStats heldRec;", stats: "out = out + list_len(held); held = recs; heldRec = list_get(recs, 1);"},
		{name: "in containers", stats: `made = [list_get(recs, 0), recs]; m = map_set(m, "r", list_get(recs, 1)); m = map_set(m, "all", recs); w = Wrap { .rec = list_get(recs, 2), .tag = 1 }; PortStats back = map_get(m, "r", 0); out = back.port + w.rec.port;`},
		{name: "map key from field", stats: "PortStats r = list_get(recs, 0); m = map_set(m, r.port, r.txBytes); out = map_get(m, r.port, 0);"},
		{name: "field assign on a row", stats: "PortStats r = list_get(recs, 0); r.dTxBytes = 7; out = r.dTxBytes; out2 = r.port; send r to harvester;"},
		{name: "field assign on a kept row", stats: "keptRec = list_get(recs, 1); keptRec.port = 0 - 5; out = keptRec.port + keptRec.txPkts;"},
		{name: "field assign unknown field", stats: "PortStats r = list_get(recs, 0); r.nosuch = 1;", wantErr: "struct PortStats has no field nosuch"},
		{name: "field assign on the batch", stats: "kept = recs; kept.port = 1;", wantErr: "kept is list, not a struct"},
		{name: "trigger retune from field", stats: "PortStats r = list_get(recs, 0); stats.ival = r.port + 1;"},
		{name: "trigger reassigned a row", stats: "stats = list_get(recs, 0);", wantErr: "trigger stats reassignment needs .ival"},
		{name: "trigger reassigned the batch", stats: "stats = recs;", wantErr: "trigger stats must be assigned a Poll/Probe value"},
		{name: "filter atom from field", stats: "PortStats r = list_get(recs, 2); addTCAMRule(port r.port, drop(), 1);"},
		{name: "filter atom from row", stats: "addTCAMRule(port list_get(recs, 2), drop(), 1);", wantErr: "unsupported argument struct"},
		{name: "filter and batch", stats: "addTCAMRule(dstPort 80 and recs, drop(), 1);", wantErr: "filter and list"},
	}
	for _, l := range []*Layout{portStatsLayout, ruleStatsLayout} {
		for _, f := range l.Names {
			c := tc{name: l.TypeName + "." + f}
			body := fmt.Sprintf("%s r = list_get(recs, 0); out = r.%s; keptRec = r;", l.TypeName, f)
			if l == portStatsLayout {
				c.stats = body
			} else {
				c.rule = body
			}
			cases = append(cases, c)
		}
	}

	// Three completions of each trigger, alternating. Each variant builds
	// them the way the soil does, over its trigger's previous batch once
	// that has been handled: rewritten in place unless the handler kept it.
	rng := rand.New(rand.NewSource(17))
	ports := []int{1, 2, 3, 4, 5, 6}
	var portCur [3][]dataplane.PortStats
	var ruleCur [3]dataplane.RuleStats
	for k := range portCur {
		portCur[k] = make([]dataplane.PortStats, len(ports))
		for i := range ports {
			c := dataplane.PortStats{RxPackets: uint64(rng.Intn(50)), RxBytes: uint64(rng.Intn(4000)), TxPackets: uint64(rng.Intn(50)), TxBytes: uint64(rng.Intn(4000))}
			if k > 0 {
				p := portCur[k-1][i]
				c.RxPackets, c.RxBytes, c.TxPackets, c.TxBytes = c.RxPackets+p.RxPackets, c.RxBytes+p.RxBytes, c.TxPackets+p.TxPackets, c.TxBytes+p.TxBytes
			}
			portCur[k][i] = c
		}
		ruleCur[k] = dataplane.RuleStats{Packets: uint64(4 + 5*k), Bytes: uint64(900 + 1000*k)}
	}
	variants := []struct {
		name    string
		backend string
		asList  bool
	}{
		{name: "interpreter, batch", backend: "interpreted"},
		{name: "register VM, batch", backend: "register"},
		{name: "register VM, list", backend: "register", asList: true},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cm := parityCompile(t, fmt.Sprintf(batchMachine, c.decls, c.stateVar, c.stats, c.rule), "B")
			var ref struct{ errs, fp, trace string }
			for vi, v := range variants {
				host := newMockHost()
				r, err := newParityRunner(v.backend, cm, nil, host)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Start(); err != nil {
					t.Fatal(err)
				}
				var errs strings.Builder
				actions := 0
				deliver := func(trigger string, b *Batch) {
					var arg Value = b
					if v.asList {
						arg = b.List()
					}
					fmt.Fprintf(&errs, "%s: %v\n", trigger, r.HandleTrigger(trigger, arg))
					actions += r.TakeActionCount()
				}
				var stats, rule *Batch
				for k := range portCur {
					stats = NewPortStatsBatch(ports, portCur[k], stats, stats)
					deliver("stats", stats)
					rule = NewRuleStatsBatch(ruleCur[k], rule, rule)
					deliver("rule", rule)
				}
				// Snapshot -> restore into a fresh runner -> snapshot: what
				// a handler kept survives migration as plain values.
				snap := r.Snapshot()
				assertNoBatch(t, v.name+" snapshot", snap.Env, snap.StateVars)
				for _, m := range host.sent {
					assertNoBatch(t, v.name+" send payload", m.v)
				}
				r2, err := newParityRunner(v.backend, cm, nil, newMockHost())
				if err != nil {
					t.Fatal(err)
				}
				if err := r2.Restore(snap); err != nil {
					t.Fatalf("%s: restore: %v", v.name, err)
				}
				fp := fingerprint(r)
				if again := fingerprint(r2); again != fp {
					t.Fatalf("%s: snapshot changed across restore\n--- before ---\n%s--- after ---\n%s", v.name, fp, again)
				}
				got := struct{ errs, fp, trace string }{errs.String(), fp, fmt.Sprintf("%sactions %d\n", hostTrace(host), actions)}
				if vi == 0 {
					ref = got
					if c.wantErr != "" && !strings.Contains(ref.errs, c.wantErr) {
						t.Fatalf("errors = %q, want one containing %q", ref.errs, c.wantErr)
					}
					if c.wantErr == "" && strings.Contains(ref.errs, "core:") {
						t.Fatalf("unexpected error: %s", ref.errs)
					}
					continue
				}
				if got != ref {
					t.Fatalf("%s diverged from %s\n--- errors ---\n%s--- vs ---\n%s--- state ---\n%s--- vs ---\n%s--- host ---\n%s--- vs ---\n%s",
						v.name, variants[0].name, ref.errs, got.errs, ref.fp, got.fp, ref.trace, got.trace)
				}
			}
		})
	}
}

// assertNoBatch fails if a *Batch (rather than the list it stands for)
// is reachable from any of the values.
func assertNoBatch(t *testing.T, what string, vs ...any) {
	t.Helper()
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case *Batch:
			t.Fatalf("%s holds a *Batch", what)
		case List:
			for _, e := range x {
				walk(e)
			}
		case *MapVal:
			for _, k := range x.Keys() {
				e, _ := x.Get(k.(string))
				walk(e)
			}
		case map[string]Value:
			for _, e := range x {
				walk(e)
			}
		case map[string]map[string]Value:
			for _, e := range x {
				walk(e)
			}
		case StructVal:
			for _, e := range x.V {
				walk(e)
			}
		}
	}
	for _, v := range vs {
		walk(v)
	}
}

// TestBatchWritesCopyOut pins the copy-out-on-write rule: assigning a
// field of a polled record gives the variable a private struct; the
// batch, its other rows and every other holder of the same batch keep
// reading the polled values.
func TestBatchWritesCopyOut(t *testing.T) {
	cm := parityCompile(t, fmt.Sprintf(batchMachine, "", "",
		`PortStats r = list_get(recs, 0);
		 keptRec = r;
		 r.dTxBytes = 0 - 1;
		 out = r.dTxBytes;
		 PortStats again = list_get(recs, 0);
		 out2 = again.dTxBytes;
		 flag = keptRec.dTxBytes == out2;`, ""), "B")
	_, b := testBatches(rand.New(rand.NewSource(4)), 3)
	polled := b.at(0, psDTxBytes)
	before := FormatValue(b)
	prog, err := Compile(cm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // two seeds share the batch and the program
		r, err := prog.NewRunner(nil, newMockHost())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		if err := r.HandleTrigger("stats", b); err != nil {
			t.Fatal(err)
		}
		out, _ := r.Var("out")
		out2, _ := r.Var("out2")
		flag, _ := r.Var("flag")
		if out != int64(-1) || out2 != polled || flag != true {
			t.Fatalf("seed %d: written copy reads %v, the batch row %v (polled %d), alias untouched %v", i, out, out2, polled, flag)
		}
	}
	if after := FormatValue(b); after != before {
		t.Fatalf("the shared batch changed:\n%s\n%s", before, after)
	}
}
