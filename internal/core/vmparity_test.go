package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"farm/internal/almanac"
	"farm/internal/dataplane"
)

// The register VM must be observationally identical to the AST
// interpreter: same states, same variables, same emissions, same error
// strings, same action counts. These tests run the reference (*Seed via
// NewSeed) and the production runner (Compile + NewRunner) side by side over
// snippets, hand-picked corner cases, and long random trigger sequences,
// and diff everything against the interpreter.

func parityCompile(t testing.TB, src, name string) *almanac.CompiledMachine {
	t.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cm
}

// parityBackends names the two executors, interpreter (the semantic
// reference) first.
var parityBackends = []string{"interpreted", "register"}

// newParityRunner deploys cm on the named executor: the reference through
// NewSeed, the production path through Compile and NewRunner.
func newParityRunner(be string, cm *almanac.CompiledMachine, ext map[string]Value, host Host) (Runner, error) {
	if be == "interpreted" {
		s, err := NewSeed(cm, ext, host)
		if err != nil {
			return nil, err // not a typed-nil Runner
		}
		return s, nil
	}
	prog, err := Compile(cm)
	if err != nil {
		return nil, err
	}
	return prog.NewRunner(ext, host)
}

// backendSet holds one runner per executor, deployed from one machine
// with identical externals, parallel by index to parityBackends.
type backendSet struct {
	rs []Runner
	hs []*mockHost
}

func newBackendSet(t *testing.T, cm *almanac.CompiledMachine, ext map[string]Value) *backendSet {
	t.Helper()
	p := &backendSet{
		rs: make([]Runner, len(parityBackends)),
		hs: make([]*mockHost, len(parityBackends)),
	}
	errs := make([]error, len(parityBackends))
	for i, be := range parityBackends {
		p.hs[i] = newMockHost()
		p.rs[i], errs[i] = newParityRunner(be, cm, cloneExternals(ext), p.hs[i])
	}
	for i := 1; i < len(errs); i++ {
		if (errs[0] == nil) != (errs[i] == nil) || (errs[0] != nil && errs[0].Error() != errs[i].Error()) {
			t.Fatalf("construction diverged: interp=%v %s=%v", errs[0], parityBackends[i], errs[i])
		}
	}
	if errs[0] != nil {
		return nil
	}
	if _, ok := p.rs[1].(*rvmSeed); !ok {
		t.Fatalf("NewRunner returned %T, want the register VM", p.rs[1])
	}
	return p
}

// do applies one step to every back end and asserts the error outcomes
// are identical, returning the shared error. The callback must build
// fresh argument values per call (use CloneValue for lists/structs) so
// back ends never share mutable state.
func (p *backendSet) do(t *testing.T, ctx string, f func(r Runner) error) error {
	t.Helper()
	errs := make([]error, len(p.rs))
	for i, r := range p.rs {
		errs[i] = f(r)
	}
	for i := 1; i < len(errs); i++ {
		if (errs[0] == nil) != (errs[i] == nil) || (errs[0] != nil && errs[0].Error() != errs[i].Error()) {
			t.Fatalf("%s: error diverged\ninterp: %v\n%s: %v", ctx, errs[0], parityBackends[i], errs[i])
		}
	}
	return errs[0]
}

func cloneExternals(ext map[string]Value) map[string]Value {
	if ext == nil {
		return nil
	}
	out := make(map[string]Value, len(ext))
	for k, v := range ext {
		out[k] = CloneValue(v)
	}
	return out
}

// fingerprint renders a runner's full observable state deterministically.
func fingerprint(r Runner) string {
	snap := r.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "state=%s\n", snap.State)
	for _, k := range sortedKeys(snap.Env) {
		fmt.Fprintf(&b, "env %s=%s\n", k, FormatValue(snap.Env[k]))
	}
	stNames := make([]string, 0, len(snap.StateVars))
	for k := range snap.StateVars {
		stNames = append(stNames, k)
	}
	sort.Strings(stNames)
	for _, st := range stNames {
		for _, k := range sortedKeys(snap.StateVars[st]) {
			fmt.Fprintf(&b, "var %s.%s=%s\n", st, k, FormatValue(snap.StateVars[st][k]))
		}
	}
	return b.String()
}

func sortedKeys(m map[string]Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostTrace renders every externally visible host interaction.
func hostTrace(h *mockHost) string {
	var b strings.Builder
	for _, m := range h.sent {
		fmt.Fprintf(&b, "send harv=%v machine=%q dst=%q v=%s\n", m.to.Harvester, m.to.Machine, m.to.Dst, FormatValue(m.v))
	}
	for _, r := range h.rules {
		fmt.Fprintf(&b, "tcam+ %s\n", r)
	}
	ivals := make([]string, 0, len(h.intervals))
	for k, v := range h.intervals {
		ivals = append(ivals, fmt.Sprintf("ival %s=%g", k, v))
	}
	sort.Strings(ivals)
	for _, s := range ivals {
		fmt.Fprintf(&b, "%s\n", s)
	}
	for _, c := range h.execCalls {
		fmt.Fprintf(&b, "exec %s\n", c)
	}
	for _, l := range h.logs {
		fmt.Fprintf(&b, "log %s\n", l)
	}
	return b.String()
}

// diffSet asserts every back end is indistinguishable from the
// interpreter right now.
func diffSet(t *testing.T, p *backendSet, ctx string) {
	t.Helper()
	fp0, tr0 := fingerprint(p.rs[0]), hostTrace(p.hs[0])
	ac0 := p.rs[0].TakeActionCount()
	for i := 1; i < len(p.rs); i++ {
		name := parityBackends[i]
		if a, b := p.rs[0].State(), p.rs[i].State(); a != b {
			t.Fatalf("%s: state interp=%s %s=%s", ctx, a, name, b)
		}
		if b := fingerprint(p.rs[i]); fp0 != b {
			t.Fatalf("%s: fingerprint diverged\n--- interp ---\n%s--- %s ---\n%s", ctx, fp0, name, b)
		}
		if b := hostTrace(p.hs[i]); tr0 != b {
			t.Fatalf("%s: host trace diverged\n--- interp ---\n%s--- %s ---\n%s", ctx, tr0, name, b)
		}
		if b := p.rs[i].TakeActionCount(); ac0 != b {
			t.Fatalf("%s: action count interp=%d %s=%d", ctx, ac0, name, b)
		}
	}
}

// refusedBySema requires CompileMachine to refuse src's machine with a
// positioned error containing want.
func refusedBySema(t *testing.T, src, machine, want string) {
	t.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	_, err = almanac.CompileMachine(prog, machine)
	var se *almanac.SemaError
	if !errors.As(err, &se) || se.Line <= 0 || !strings.Contains(err.Error(), want) {
		t.Fatalf("CompileMachine = %v, want a positioned error containing %q\n%s", err, want, src)
	}
}

func TestVMSnippetParity(t *testing.T) {
	cases := []struct {
		name  string
		decls string
		body  string
	}{
		{"integer arithmetic", "long a; long b;", "a = 7 * 6 - 2; b = a / 4;"},
		{"float promotion", "float f;", "f = 3 / 2.0;"},
		{"division by zero", "long a;", "a = 1 / 0;"},
		{"float division by zero", "float a;", "a = 1.0 / 0;"},
		{"string concat", "string s; bool eq;", `s = "a" + "b"; eq = s == "ab";`},
		{"list concat", "list l; long n; bool has;", "l = [1, 2] + [3]; n = list_len(l); has = list_contains(l, 3);"},
		{"map ops", "map m; long v; long missing; long sz;", `m = map_set(m, "k", 5); v = map_get(m, "k", 0); missing = map_get(m, "nope", 42); sz = map_len(m);`},
		{"while loop", "long sum; long i;", "i = 1; while (i <= 10) { sum = sum + i; i = i + 1; }"},
		{"if else chains", "long x; string cls;", `x = 7; if (x > 10) then { cls = "big"; } else if (x > 5) then { cls = "mid"; } else { cls = "small"; }`},
		{"short circuit", "bool a; bool b;", "a = false and (1 / 0 == 1); b = true or (1 / 0 == 1);"},
		{"not and comparisons", "bool a; bool b; bool c;", "a = not (1 > 2); b = 3 <> 4; c = 2 <= 2;"},
		{"mixed compare", "bool a; bool b;", "a = 1 < 1.5; b = 2.0 >= 2;"},
		{"math builtins", "long mn; long mx; long ab; long fl;", "mn = min(3, 1, 2); mx = max(3, 1, 2); ab = abs(0 - 9); fl = floor(3.9);"},
		{"float min max", "float mn; float mx;", "mn = min(3, 1.5); mx = max(0 - 2.5, 1);"},
		{"log builtins", "float a; float b;", "a = log(8.0); b = log2(8);"},
		{"log of nonpositive", "float a;", "a = log(0);"},
		{"unary minus", "long a; float b;", "a = -5; b = -(2.5);"},
		{"unary minus error", "string s; long a;", `s = "x"; a = -s;`},
		{"condition type error", "long a;", `if ("nope") then { a = 1; }`},
		{"add type error", "long a;", `a = 1 + "x";`},
		{"add type error of a product on the right", "list l;", "l = [1] + 2 * 3;"},
		{"add type error of a product on the left", "long a;", `a = 2 * 3 + "x";`},
		{"struct literal and field assign", "long out;", "Pair pr = Pair { .a = 1, .b = 2 }; pr.a = 10; out = pr.a + pr.b;"},
		{"struct field missing", "long out;", "Pair pr = Pair { .a = 1, .b = 2 }; out = pr.c;"},
		{"field assign non-struct", "long x;", "x = 1; x.a = 2;"},
		{"filter values", "filter f; bool removed;", `f = dstPort 80 and proto "tcp"; addTCAMRule(f, drop(), 5); removed = removeTCAMRule(f);`},
		{"filter and non-filter", "filter f;", `f = dstPort 80 and 1;`},
		{"sketch roundtrip", "list sk; long c; long tot;", `sk = sketch_new(64, 3); sketch_add(sk, "k", 5); sketch_add(sk, "k", 2); c = sketch_count(sk, "k"); tot = sketch_total(sk);`},
		{"distinct estimate", "list d; float est;", `d = distinct_new(1024); distinct_add(d, "a"); distinct_add(d, "b"); distinct_add(d, "a"); est = distinct_estimate(d);`},
		{"undeclared variable", "", "nosuch = 1;"},
		{"undeclared read", "long a;", "a = nosuch;"},
		{"unknown function", "long a;", "a = frobnicate(1);"},
		{"function arity", "long a;", "a = f2(1);"},
		{"list_get out of range", "long a;", "a = list_get([1], 5);"},
		{"list_get negative", "long a;", "a = list_get([1], 0 - 1);"},
		{"str rendering", "string s;", "s = str(42);"},
		{"str passthrough", "string s;", `s = str("x");`},
		{"now builtin", "float n;", "n = now();"},
		{"list append and clear", "list l; long n;", "l = list_append(l, 9); l = list_append(l, 8); n = list_len(l); l = list_clear(l);"},
		{"map keys", "map m; list ks;", `m = map_set(m, "b", 1); m = map_set(m, "a", 2); ks = map_keys(m);`},
		{"map has and del", "map m; bool h1; bool h2;", `m = map_set(m, "k", 1); h1 = map_has(m, "k"); m = map_del(m, "k"); h2 = map_has(m, "k");`},
		{"map_new default hit and miss", "map m; map hit; map miss; long n;", `m = map_set(m, "k", map_set(map_new(), "in", 1)); hit = map_get(m, "k", map_new()); miss = map_get(m, "nope", map_new()); map_set(miss, "x", 2); n = map_len(hit) + map_len(map_get(m, "nope", map_new()));`},
		{"map_new default on a non-map", "long a; map x;", `a = 5; x = map_get(a, "k", map_new());`},
		{"private map reset in place", "map m; list ks; list again; long n;", `m = map_set(m, "b", 1); m = map_set(m, "a", 2); ks = map_keys(m); m = map_new(); n = map_len(m); m = map_set(m, "a", 3); m = map_set(m, "b", 4); again = map_keys(m);`},
		{"nested function calls", "long out;", "out = f2(f2(1, 2), f2(3, 4));"},
		{"function return nothing", "long out;", "out = 5; noret(1);"},
		{"conditional decl then use", "long out;", "if (1 > 2) then { long x = 5; out = x; } out = 1;"},
		{"conditional decl undeclared read", "long out;", "if (1 > 2) then { long x = 5; } out = x;"},
		{"decl shadows machine var", "long g; long out;", "g = 1; long g = 7; out = g;"},
		{"conditional shadow falls back", "long g; long out;", "g = 3; if (1 > 2) then { long g = 7; g = 9; } out = g;"},
		{"transit to other", "long a;", "a = 1; transit other;"},
		{"transit inside loop", "long i;", "while (i < 5) { i = i + 1; if (i == 3) then { transit other; } }"},
		{"send to harvester", "long a;", "a = 4; send a to harvester;"},
		{"send list clones", "list l;", "l = [1]; send l to harvester; l = list_append(l, 2);"},
		{"trigger retune", "", "p.ival = 50;"},
		{"trigger retune bad", "", "p.ival = 0 - 5;"},
		{"trigger retune non-number", "", `p.ival = "fast";`},
		{"trigger other field", "", "p.what = 1;"},
		{"res fields", "float c;", "c = res().vCPU + res().RAM;"},
		{"exec hook", "string r;", `r = str(exec("cmd", 1));`},
		{"log hook", "", `log_msg("hello " + str(7));`},
		{"empty list zero", "list l; bool e;", "e = is_list_empty(l);"},
		{"map zero fresh", "map m; long n;", `m = map_set(m, "x", 1); n = map_len(m);`},
		{"eq across types", "bool a; bool b; bool c;", `a = 1 == 1.0; b = 1 == "1"; c = [1] == [1];`},
		{"nil compare", "bool a;", "a = exec(\"x\", 0) == exec(\"y\", 0);"},
		{"recursion within the depth limit", "long a;", "a = down(150);"},
		{"recursion past the depth limit", "long a; long b;", "b = 1; a = down(1000); b = 2;"},
		{"direct runaway recursion", "long a; long b;", "b = 1; a = forever(0); b = 2;"},
		{"mutual runaway recursion", "long a;", "a = 3; a = ping(0);"},
		{"runaway recursion in an argument", "long a;", "a = f2(1, ping(0));"},
		{"depth resets after a failed call", "long a;", "a = down(150) + down(150);"},
	}
	// Snippets that name something out of scope: sema refuses them, at
	// the line of the name, before either executor sees them.
	refused := map[string]string{
		"undeclared variable":              "line 15: state s: assignment to undeclared name nosuch",
		"undeclared read":                  "line 15: state s: undeclared name nosuch",
		"conditional decl undeclared read": "line 15: state s: undeclared name x",
		"decl shadows machine var":         "line 15: state s: local g is already declared as a machine variable",
		"conditional shadow falls back":    "line 15: state s: local g is already declared as a machine variable",
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			src := `
struct Pair { long a; long b; }
function f2(long a, long b) { return a * 10 + b; }
function noret(long a) { a = a + 1; }
function down(long n) { if (n <= 0) then { return 0; } return 1 + down(n - 1); }
function forever(long n) { return forever(n + 1); }
function ping(long n) { return pong(n + 1); }
function pong(long n) { return ping(n + 1); }
machine T {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  ` + c.decls + `
  state s {
    when (enter) do {
      ` + c.body + `
    }
  }
  state other {
    when (enter) do { }
  }
}
`
			if want, ok := refused[c.name]; ok {
				refusedBySema(t, src, "T", want)
				return
			}
			cm := parityCompile(t, src, "T")
			p := newBackendSet(t, cm, nil)
			p.do(t, "start", func(r Runner) error { return r.Start() })
			diffSet(t, p, "after start")
		})
	}
}

// propertySource is a machine exercising state vars, transit cascades,
// exit handlers, functions, maps, lists, and recv dispatch.
const propertySource = `
struct Rec { string key; long n; }
function clamp(long x, long lo, long hi) {
  if (x < lo) then { return lo; }
  if (x > hi) then { return hi; }
  return x;
}
machine P {
  place all;
  poll tick = Poll { .ival = 10, .what = port ANY };
  poll tock = Poll { .ival = 20, .what = port ANY };
  long total;
  map counts;
  map groups;
  map alias;
  list seen;
  list ks;
  string last;

  state idle {
    when (tick as v) do {
      total = total + clamp(v, 0 - 5, 5);
      last = str(v);
      if (total > 40) then { transit busy; }
    }
    when (tock as v) do {
      counts = map_set(counts, str(v), map_get(counts, str(v), 0) + 1);
      alias = counts;
      map_set(alias, v + 100, map_get(counts, v + 100, 0) + 1000);
      map g = map_get(groups, v / 3, map_new());
      map_set(g, v, map_get(g, v, 0) + 70000);
      groups = map_set(groups, v / 3, g);
      if (v == 4) then { counts = map_del(counts, "104"); }
      ks = map_keys(alias);
      if (map_len(counts) > 12) then { transit busy; }
    }
    when (recv long x from harvester) do { total = total - x; }
    when (recv Rec r from harvester) do {
      counts = map_set(counts, r.key, r.n);
    }
  }
  state busy {
    long rounds;
    when (enter) do { send total to harvester; }
    when (tick as v) do {
      rounds = rounds + 1;
      seen = seen + [v];
      if (rounds >= 3) then {
        rounds = 0;
        transit idle;
      }
    }
    when (realloc) do { tick.ival = 15; }
    when (exit) do {
      if (total > 42) then { groups = map_new(); }
      total = 0;
      counts = map_new();
      seen = list_clear(seen);
    }
  }
}
`

// TestVMRandomProperty drives both executors through thousands of
// random steps and requires byte-identical observable behaviour
// throughout, including periodic snapshot rotation across back ends.
func TestVMRandomProperty(t *testing.T) {
	cm := parityCompile(t, propertySource, "P")
	rng := rand.New(rand.NewSource(42))
	p := newBackendSet(t, cm, nil)
	p.do(t, "start", func(r Runner) error { return r.Start() })
	const steps = 12000
	harv := MsgSource{Harvester: true}
	for i := 0; i < steps; i++ {
		ctx := fmt.Sprintf("step %d", i)
		switch k := rng.Intn(10); k {
		case 0, 1, 2, 3:
			v := int64(rng.Intn(21) - 10)
			p.do(t, ctx, func(r Runner) error { return r.HandleTrigger("tick", v) })
		case 4, 5:
			v := int64(rng.Intn(9))
			p.do(t, ctx, func(r Runner) error { return r.HandleTrigger("tock", v) })
		case 6:
			v := int64(rng.Intn(30))
			p.do(t, ctx, func(r Runner) error { return r.HandleRecv(harv, v) })
		case 7:
			key, n := fmt.Sprintf("k%d", rng.Intn(5)), int64(rng.Intn(100))
			p.do(t, ctx, func(r Runner) error {
				return r.HandleRecv(harv, StructOf("Rec", map[string]Value{"key": key, "n": n}))
			})
		case 8:
			p.do(t, ctx, func(r Runner) error { return r.HandleRealloc() })
		case 9:
			// Unknown trigger / unmatched recv are dropped by all.
			p.do(t, ctx, func(r Runner) error { return r.HandleTrigger("nosuch", int64(1)) })
		}
		if i%251 == 0 {
			diffSet(t, p, ctx)
		}
		if i%997 == 0 {
			// Cross-restore swap: snapshot both executors, then restore
			// each snapshot into the *other* one. Both must remain
			// identical afterwards.
			snaps := make([]Snapshot, len(p.rs))
			for j, r := range p.rs {
				snaps[j] = r.Snapshot()
			}
			for j, r := range p.rs {
				src := (j + 1) % len(p.rs)
				if err := r.Restore(snaps[src]); err != nil {
					t.Fatalf("%s: restore %s snapshot into %s: %v",
						ctx, parityBackends[src], parityBackends[j], err)
				}
			}
			diffSet(t, p, ctx+" after cross-restore")
		}
	}
	diffSet(t, p, "final")
}

// TestVMSnapshotCrossBackend covers the failover path: run on one
// executor, snapshot, restore into both, and require identical
// subsequent behaviour (all source/destination combinations).
func TestVMSnapshotCrossBackend(t *testing.T) {
	cm := parityCompile(t, propertySource, "P")
	drive := func(r Runner, rng *rand.Rand, n int) {
		t.Helper()
		harv := MsgSource{Harvester: true}
		for i := 0; i < n; i++ {
			var err error
			switch rng.Intn(4) {
			case 0, 1:
				err = r.HandleTrigger("tick", int64(rng.Intn(21)-10))
			case 2:
				err = r.HandleTrigger("tock", int64(rng.Intn(9)))
			case 3:
				err = r.HandleRecv(harv, int64(rng.Intn(30)))
			}
			if err != nil {
				t.Fatalf("drive step %d: %v", i, err)
			}
		}
	}
	for _, from := range parityBackends {
		from := from
		t.Run("from-"+from, func(t *testing.T) {
			src, err := newParityRunner(from, cm, nil, newMockHost())
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Start(); err != nil {
				t.Fatal(err)
			}
			drive(src, rand.New(rand.NewSource(7)), 500)
			snap := src.Snapshot()

			// Restore the snapshot into a fresh runner of each
			// executor; drive them identically and compare.
			hosts := make([]*mockHost, len(parityBackends))
			runners := make([]Runner, len(parityBackends))
			for i, be := range parityBackends {
				hosts[i] = newMockHost()
				runners[i], err = newParityRunner(be, cm, nil, hosts[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := runners[i].Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			fp0 := fingerprint(runners[0])
			for i := 1; i < len(runners); i++ {
				if b := fingerprint(runners[i]); fp0 != b {
					t.Fatalf("restored fingerprints differ\n--- interp ---\n%s--- %s ---\n%s", fp0, parityBackends[i], b)
				}
			}
			for _, r := range runners {
				drive(r, rand.New(rand.NewSource(11)), 500)
			}
			fp0, tr0 := fingerprint(runners[0]), hostTrace(hosts[0])
			for i := 1; i < len(runners); i++ {
				if b := fingerprint(runners[i]); fp0 != b {
					t.Fatalf("post-restore behaviour diverged\n--- interp ---\n%s--- %s ---\n%s", fp0, parityBackends[i], b)
				}
				if b := hostTrace(hosts[i]); tr0 != b {
					t.Fatalf("post-restore host traces diverged\n--- interp ---\n%s--- %s ---\n%s", tr0, parityBackends[i], b)
				}
			}
		})
	}
}

// TestVMRestoreErrors pins the error strings of invalid snapshots on
// both executors. A snapshot naming several unknown variables reports
// the smallest name, whatever the maps' order (each case runs 20 times
// so the order would show), and a rejected snapshot writes nothing: the
// valid names it carries leave the seed as it was.
func TestVMRestoreErrors(t *testing.T) {
	cm := parityCompile(t, propertySource, "P")
	for _, c := range []struct {
		snap Snapshot
		want string
	}{
		{Snapshot{Machine: "Q", State: "idle"}, "core: snapshot of Q cannot restore into P"},
		{Snapshot{Machine: "P", State: "nope"}, "core: snapshot state nope unknown"},
		{Snapshot{Machine: "P", State: "idle", Env: map[string]Value{"ghost": int64(1)}}, "core: snapshot variable ghost unknown"},
		{Snapshot{Machine: "P", State: "idle", StateVars: map[string]map[string]Value{"nope": {}}}, "core: snapshot state nope unknown"},
		{Snapshot{Machine: "P", State: "busy", Env: map[string]Value{
			"total": int64(77), "zeta": int64(1), "ghost": int64(2), "last": "x", "alpha2": nil,
		}}, "core: snapshot variable alpha2 unknown"},
		{Snapshot{Machine: "P", State: "busy", Env: map[string]Value{"total": int64(77)}, StateVars: map[string]map[string]Value{
			"busy": {"rounds": int64(9)}, "zz": {}, "nope": {"rounds": int64(1)}, "idle": {},
		}}, "core: snapshot state nope unknown"},
		{Snapshot{Machine: "P", State: "busy", Env: map[string]Value{"total": int64(77)}, StateVars: map[string]map[string]Value{
			"busy": {"rounds": int64(9), "spare": int64(1), "extra": int64(2)}, "idle": {"ghost": true},
		}}, "core: snapshot state busy has no variable extra"},
		{Snapshot{Machine: "P", State: "idle", StateVars: map[string]map[string]Value{
			"idle": {"ghost": true, "also": 1.5},
		}}, "core: snapshot state idle has no variable also"},
	} {
		for round := 0; round < 20; round++ {
			p := newBackendSet(t, cm, nil)
			p.do(t, "start", func(r Runner) error { return r.Start() })
			before := fingerprint(p.rs[0])
			err := p.do(t, fmt.Sprintf("restore %+v", c.snap), func(r Runner) error { return r.Restore(c.snap) })
			if err == nil || err.Error() != c.want {
				t.Fatalf("restore %+v: %v, want %q", c.snap, err, c.want)
			}
			diffSet(t, p, "after a rejected restore")
			if after := fingerprint(p.rs[0]); after != before {
				t.Fatalf("restore %+v failed but wrote:\n--- before ---\n%s--- after ---\n%s", c.snap, before, after)
			}
		}
	}
}

// TestVMHHParity runs the paper's heavy-hitter seed on both executors
// with real PortStats batches, TCAM writes, and harvester traffic.
func TestVMHHParity(t *testing.T) {
	cm := compileSrc(t, hhRunnableSource, "HH")
	ext := map[string]Value{"threshold": int64(1000)}
	p := newBackendSet(t, cm, ext)
	p.do(t, "start", func(r Runner) error { return r.Start() })
	rng := rand.New(rand.NewSource(3))
	harv := MsgSource{Harvester: true}
	for i := 0; i < 400; i++ {
		ctx := fmt.Sprintf("step %d", i)
		switch rng.Intn(6) {
		case 0, 1, 2, 3:
			// One completion as the soil delivers it: the VM gets the
			// batch, the interpreter the list it stands for.
			_, stats := testBatches(rng, 8)
			p.do(t, ctx, func(r Runner) error {
				if _, vm := r.(*rvmSeed); vm {
					return r.HandleTrigger("pollStats", stats)
				}
				return r.HandleTrigger("pollStats", stats.List())
			})
		case 4:
			th := int64(rng.Intn(2500))
			p.do(t, ctx, func(r Runner) error { return r.HandleRecv(harv, th) })
		case 5:
			p.do(t, ctx, func(r Runner) error { return r.HandleRecv(harv, ActionVal(dataplane.ActDrop)) })
		}
		if i%37 == 0 {
			diffSet(t, p, ctx)
		}
	}
	diffSet(t, p, "final")
	if len(p.hs[0].sent) == 0 {
		t.Fatal("test never exercised the send path")
	}
}

// TestConstOpsCrossCheck drives the shared operator table through all
// consumers — EvalConst, the interpreter, and the register VM — over an
// operator/operand matrix and requires agreement.
func TestConstOpsCrossCheck(t *testing.T) {
	type operand struct {
		lit   string  // DSL literal
		num   float64 // numeric value
		isInt bool    // a long at runtime (floats at deployment time)
	}
	operands := []operand{
		{"0", 0, true}, {"1", 1, true}, {"7", 7, true}, {"0 - 3", -3, true},
		{"2.5", 2.5, false}, {"0.0", 0, false},
	}
	ops := []string{"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "<>"}
	for _, op := range ops {
		for _, l := range operands {
			for _, r := range operands {
				expr := fmt.Sprintf("(%s) %s (%s)", l.lit, op, r.lit)
				// Reference: the shared table via EvalConst.
				prog, err := almanac.Parse(fmt.Sprintf(`
machine C {
  place all;
  float x = %s;
  state s { when (enter) do { } }
}`, expr))
				var cref almanac.Const
				var cerr error
				if err == nil {
					cref, cerr = almanac.EvalConst(prog.Machines[0].Vars[0].Init, nil)
				} else {
					t.Fatalf("parse %s: %v", expr, err)
				}

				// Runtime: both executors computing the same expression
				// into a dynamically typed variable.
				src := fmt.Sprintf(`
machine C {
  place all;
  state s {
    when (enter) do {
      map m;
      m = map_set(m, "r", %s);
      send map_get(m, "r", 0) to harvester;
    }
  }
}`, expr)
				cm := parityCompile(t, src, "C")
				p := newBackendSet(t, cm, nil)
				erri := p.do(t, expr, func(r Runner) error { return r.Start() })
				diffSet(t, p, expr)

				if cerr != nil || erri != nil {
					// Division by zero: every consumer must refuse.
					if strings.Contains(expr, "/") {
						if cerr == nil || erri == nil {
							t.Fatalf("%s: const err=%v runtime err=%v", expr, cerr, erri)
						}
						continue
					}
					t.Fatalf("%s: unexpected errors const=%v runtime=%v", expr, cerr, erri)
				}
				got := FormatValue(p.hs[0].sent[0].v)
				var want string
				switch cref.Kind {
				case almanac.ConstNum:
					want = FormatValue(cref.Num)
					// The runtime keeps int64 where both operands are
					// longs (integer division included); deployment-time
					// constants are float-only. Compare numerically with
					// that documented difference applied.
					expect := cref.Num
					if op == "/" && l.isInt && r.isInt {
						expect = float64(int64(l.num) / int64(r.num))
					}
					if f, ok := AsFloat(p.hs[0].sent[0].v); ok {
						if f != expect {
							t.Fatalf("%s: runtime %v, const %v (expect %v)", expr, f, cref.Num, expect)
						}
						continue
					}
				case almanac.ConstBool:
					want = FormatValue(cref.Bool)
				default:
					t.Fatalf("%s: unexpected const kind %v", expr, cref.Kind)
				}
				if got != want {
					t.Fatalf("%s: runtime %s, const %s", expr, got, want)
				}
			}
		}
	}
}

// A machine with no states, or whose initial state it does not declare
// (neither sema nor DecodeXML produces either; a hand-built machine can), is
// unusable on both sides: the interpreter fails in "unknown state" the
// moment it is started, and Compile refuses to hand out a program whose
// runner would have no state frame to start in.
func TestNoStartStateIsUnusableOnBothSides(t *testing.T) {
	declared := parityCompile(t, `machine M { place all; time t = 5; state s { when (t) do { } } }`, "M")
	nowhere := *declared
	nowhere.InitialState = "nowhere"
	for _, tc := range []struct {
		name string
		cm   *almanac.CompiledMachine
		want string
	}{
		{"stateless", &almanac.CompiledMachine{Name: "M"}, "machine declares no states"},
		{"unknown initial", &nowhere, "unknown initial state nowhere"},
	} {
		if _, err := Compile(tc.cm); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile = %v, want an error containing %q", tc.name, err, tc.want)
		}
		in, err := NewSeed(tc.cm, nil, newMockHost())
		if err != nil {
			t.Fatalf("%s: NewSeed: %v", tc.name, err)
		}
		if err := in.Start(); err == nil || !strings.Contains(err.Error(), "in unknown state") {
			t.Errorf("%s: interpreter Start = %v, want the unknown-state error", tc.name, err)
		}
	}
}

// A function that never bottoms out fails the handler that called it, with
// one error string on both executors, and leaves the seed usable: the
// depth count is back at zero for the next handler.
func TestCallDepthBounded(t *testing.T) {
	cm := parityCompile(t, `
function down(long n) { if (n <= 0) then { return 0; } return 1 + down(n - 1); }
function forever(long n) { return forever(n + 1); }
machine D {
  place all;
  poll t = Poll { .ival = 10, .what = port ANY };
  long a; long calls;
  state s {
    when (t as v) do {
      calls = calls + 1;
      if (v > 0) then { a = forever(0); } else { a = down(v + `+fmt.Sprint(maxCallDepth)+`); }
    }
  }
}`, "D")
	p := newBackendSet(t, cm, nil)
	p.do(t, "start", func(r Runner) error { return r.Start() })
	for round := 0; round < 3; round++ {
		err := p.do(t, "runaway", func(r Runner) error { return r.HandleTrigger("t", int64(1)) })
		if want := fmt.Sprintf("core: call of forever nests deeper than %d (runaway recursion?) (line 3)", maxCallDepth); err == nil || err.Error() != want {
			t.Fatalf("runaway recursion: %v, want %q", err, want)
		}
		// down(maxCallDepth - 1) is maxCallDepth activations: the deepest
		// call that fits, and only if the failed one above left none behind.
		if err := p.do(t, "bounded", func(r Runner) error { return r.HandleTrigger("t", int64(-1)) }); err != nil {
			t.Fatalf("round %d: recursion within the limit: %v", round, err)
		}
		if err := p.do(t, "one too deep", func(r Runner) error { return r.HandleTrigger("t", int64(0)) }); err == nil {
			t.Fatalf("round %d: %d nested activations did not fail", round, maxCallDepth+1)
		}
		diffSet(t, p, fmt.Sprintf("round %d", round))
	}
	if a, _ := p.rs[1].Var("a"); a != int64(maxCallDepth-1) {
		t.Fatalf("a = %v, want %d", a, maxCallDepth-1)
	}
	// Initialisers run when the runner is built: there the runaway call
	// fails the deployment.
	bad := parityCompile(t, `
function forever(long n) { return forever(n + 1); }
machine I { place all; long a = forever(0); state s { when (enter) do { } } }`, "I")
	for _, be := range parityBackends {
		if _, err := newParityRunner(be, bad, nil, newMockHost()); err == nil || !strings.Contains(err.Error(), "init of a: core: call of forever nests deeper than") {
			t.Fatalf("%s: runaway initialiser: %v", be, err)
		}
	}
}
