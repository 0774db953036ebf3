package almanac

import (
	"errors"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src, machine string) *CompiledMachine {
	t.Helper()
	prog := mustParse(t, src)
	cm, err := CompileMachine(prog, machine)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestCompileHH(t *testing.T) {
	cm := mustCompile(t, hhSource, "HH")
	if cm.InitialState != "observe" {
		t.Fatalf("initial = %s", cm.InitialState)
	}
	if len(cm.States) != 2 {
		t.Fatalf("states = %d", len(cm.States))
	}
	// Machine-level recv events merged into both states.
	for _, st := range cm.States {
		recvs := 0
		for _, ev := range st.Events {
			if ev.Trigger.Kind == TrigOnRecv {
				recvs++
			}
		}
		if recvs != 2 {
			t.Fatalf("state %s has %d recv events, want 2", st.Name, recvs)
		}
	}
	if ext := cm.ExternalVars(); len(ext) != 1 || ext[0] != "threshold" {
		t.Fatalf("externals = %v", ext)
	}
}

func TestInheritanceOverridesStates(t *testing.T) {
	src := `
machine Base {
  place all;
  long x;
  state first {
    when (enter) do { x = 1; }
  }
  state second {
    when (enter) do { x = 2; }
  }
}
machine Child extends Base {
  state second {
    when (enter) do { x = 20; transit first; }
  }
  state third {
    when (enter) do { x = 3; }
  }
}
`
	cm := mustCompile(t, src, "Child")
	if len(cm.States) != 3 {
		t.Fatalf("states = %d, want 3", len(cm.States))
	}
	// Initial state comes from the base machine.
	if cm.InitialState != "first" {
		t.Fatalf("initial = %s", cm.InitialState)
	}
	// The overridden state has the child's body (2 statements).
	st, _ := cm.State("second")
	if len(st.Events[0].Body) != 2 {
		t.Fatalf("override not applied: %d stmts", len(st.Events[0].Body))
	}
	// Parent variable visible.
	if len(cm.Vars) != 1 || cm.Vars[0].Name != "x" {
		t.Fatalf("vars = %+v", cm.Vars)
	}
}

func TestInheritanceForbidsVariableShadowing(t *testing.T) {
	src := `
machine Base { place all; long x; state s { when (enter) do { } } }
machine Child extends Base { long x; }
`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "Child")
	if err == nil || !strings.Contains(err.Error(), "already declared") {
		t.Fatalf("err = %v, want shadowing error", err)
	}
}

func TestInheritanceCycle(t *testing.T) {
	src := `
machine A extends B { state s { when (enter) do {} } }
machine B extends A { state s { when (enter) do {} } }
`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "A")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
}

func TestUnknownParent(t *testing.T) {
	prog := mustParse(t, `machine A extends Nope { state s { when (enter) do {} } }`)
	if _, err := CompileMachine(prog, "A"); err == nil {
		t.Fatal("expected unknown-parent error")
	}
}

func TestMachineNeedsStates(t *testing.T) {
	prog := mustParse(t, `machine A { place all; }`)
	if _, err := CompileMachine(prog, "A"); err == nil {
		t.Fatal("expected no-states error")
	}
}

func TestTransitTargetValidated(t *testing.T) {
	src := `machine A { place all; state s { when (enter) do { transit nowhere; } } }`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "A")
	if err == nil || !strings.Contains(err.Error(), "undeclared state") {
		t.Fatalf("err = %v", err)
	}
}

func TestEventTriggerVarValidated(t *testing.T) {
	src := `machine A { place all; state s { when (nosuch as x) do { } } }`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "A")
	if err == nil || !strings.Contains(err.Error(), "undeclared trigger") {
		t.Fatalf("err = %v", err)
	}
}

func TestStateEventOverridesMachineEvent(t *testing.T) {
	src := `
machine A {
  place all;
  long x;
  when (recv long v from harvester) do { x = 1; }
  state s {
    when (recv long v from harvester) do { x = 2; x = 3; }
  }
  state t {
    when (enter) do { }
  }
}
`
	cm := mustCompile(t, src, "A")
	s, _ := cm.State("s")
	recvCount := 0
	for _, ev := range s.Events {
		if ev.Trigger.Kind == TrigOnRecv {
			recvCount++
			if len(ev.Body) != 2 {
				t.Fatalf("state override body = %d stmts, want 2", len(ev.Body))
			}
		}
	}
	if recvCount != 1 {
		t.Fatalf("state s recv events = %d, want 1 (override, not duplicate)", recvCount)
	}
	// State t keeps the machine-level version.
	tt, _ := cm.State("t")
	for _, ev := range tt.Events {
		if ev.Trigger.Kind == TrigOnRecv && len(ev.Body) != 1 {
			t.Fatalf("state t recv body = %d stmts, want 1", len(ev.Body))
		}
	}
}

func TestUtilRestrictionBadCall(t *testing.T) {
	src := `
machine A {
  place all;
  state s {
    util (res) { return getHH(res); }
    when (enter) do { }
  }
}
`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "A")
	if err == nil || !strings.Contains(err.Error(), "min and max") {
		t.Fatalf("err = %v", err)
	}
}

func TestUtilRestrictionBadStatement(t *testing.T) {
	src := `
machine A {
  place all;
  state s {
    util (res) { while (true) { return 1; } }
    when (enter) do { }
  }
}
`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "A")
	if err == nil || !strings.Contains(err.Error(), "if-then-else and return") {
		t.Fatalf("err = %v", err)
	}
}

func TestUtilRestrictionBadOperator(t *testing.T) {
	src := `
machine A {
  place all;
  state s {
    util (res) { if (res.vCPU <> 1) then { return 1; } }
    when (enter) do { }
  }
}
`
	prog := mustParse(t, src)
	_, err := CompileMachine(prog, "A")
	if err == nil || !strings.Contains(err.Error(), "not allowed in util") {
		t.Fatalf("err = %v", err)
	}
}

func TestPlacementInheritedAndReplaced(t *testing.T) {
	src := `
machine Base { place all; state s { when (enter) do {} } }
machine KeepsPlacement extends Base { }
machine NewPlacement extends Base { place any; }
`
	keep := mustCompile(t, src, "KeepsPlacement")
	if len(keep.Placements) != 1 || keep.Placements[0].Quant != QAll {
		t.Fatalf("inherited placement = %+v", keep.Placements)
	}
	repl := mustCompile(t, src, "NewPlacement")
	if len(repl.Placements) != 1 || repl.Placements[0].Quant != QAny {
		t.Fatalf("replaced placement = %+v", repl.Placements)
	}
}

func TestCompileAll(t *testing.T) {
	prog := mustParse(t, hhSource)
	cms, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(cms) != 1 || cms[0].Name != "HH" {
		t.Fatalf("compiled = %d machines", len(cms))
	}
}

// inState renders machine M with machine variables e and f, trigger t,
// and state s with variable sv and the handler `when (t as tick) do`,
// whose body starts on line 8 (after funcs).
func inState(funcs, body string) string {
	return funcs + `machine M {
  place all;
  time t = 5;
  long e; long f;
  state s {
    long sv;
    when (t as tick) do {
` + body + `
    }
  }
}
`
}

// semaRejections are sources sema refuses because a name does not
// resolve in lexical block scope, each with its one positioned error.
// They cover every construct Almanac accepted while it scoped names
// dynamically, the edge-set programs that existed for those constructs
// among them, a resource field that names no resource, and arithmetic
// or an ordered comparison on a filter. FuzzLower starts from them too.
var semaRejections = []struct {
	name string
	src  string
	line int
	msg  string
}{
	{"read after the declaring block", inState("", "if (tick > 1) then { long x = 1; }\ne = x;"), 9, "state s: undeclared name x"},
	{"write after the declaring block", inState("", "if (tick > 1) then { long x = 1; }\nx = 2;"), 9, "state s: assignment to undeclared name x"},
	{"read after a loop body", inState("", "while (e < 3) { long x = e; e = e + 1; }\nf = x;"), 9, "state s: undeclared name x"},
	{"read before the declaration", inState("", "e = x;\nlong x = 1;"), 8, "state s: undeclared name x"},
	{"self reference in a declaration", inState("", "long x = x + 1;"), 8, "state s: undeclared name x"},
	{"undeclared read", inState("", "e = nowhere + 1;"), 8, "state s: undeclared name nowhere"},
	{"undeclared write", inState("", "nowhere = 1;"), 8, "state s: assignment to undeclared name nowhere"},
	{"undeclared field write", inState("", "missing.y = 6;"), 8, "state s: assignment to undeclared name missing"},
	{"local over state variable", inState("", "long sv = 1;"), 8, "state s: local sv is already declared as a state variable"},
	{"local over machine variable", inState("", "e = 1;\nlong e = 2;"), 9, "state s: local e is already declared as a machine variable"},
	{"local over local", inState("", "long x = 1;\nif (x > 0) then { long x = 2; }"), 9, "state s: local x is already declared as a local"},
	{"local over binding", inState("", "long tick = 1;"), 8, "state s: local tick is already declared as a binding"},
	{"local over trigger", inState("", "long t = 1;"), 8, "state s: local t is already declared as a trigger"},
	{"conditional local over state variable", inState("", "if (tick > 1) then { long sv = 2; }"), 8, "state s: local sv is already declared as a state variable"},
	{"binding over machine variable", `machine M { place all; time t = 5; long e;
  state s { when (t as e) do { } } }`, 2, "state s: binding e is already declared as a machine variable"},
	{"binding over state variable", `machine M { place all; time t = 5;
  state s { long sv;
    when (recv long sv from harvester) do { } } }`, 3, "state s: binding sv is already declared as a state variable"},
	{"state variable over machine variable", `machine M { place all; long e;
  state s { long e; when (enter) do { } } }`, 2, "state s: state variable e is already declared as a machine variable"},
	{"machine variable over trigger", `machine M { place all; time t = 5;
  long t;
  state s { when (enter) do { } } }`, 2, "machine variable t is already declared as a trigger"},
	{"trigger read in a handler", inState("", "e = t;"), 8, "state s: trigger t can only be assigned, not read"},
	{"duplicate parameters", inState("function dup(long a, long a, long b) { return a + b; }\n", "e = dup(1, 2, 3);"), 1, "function dup: parameter a is already declared as a parameter"},
	{"function reads a machine variable", inState("function bump(long n) { return e + n; }\n", "e = bump(1);"), 1, "function bump: undeclared name e"},
	{"function writes a machine variable", inState("function bump(long n) {\n  e = n;\n  return n;\n}\n", "f = bump(1);"), 2, "function bump: assignment to undeclared name e"},
	{"function reads a state variable", inState("function peek() { return sv; }\n", "e = peek();"), 1, "function peek: undeclared name sv"},
	{"function writes a field of a machine variable", `struct Pt { long x; long y; }
function poke(long n) { envPt.x = n; return n; }
machine M { place all; Pt envPt; state s { when (enter) do { envPt.y = poke(1); } } }`, 2, "function poke: assignment to undeclared name envPt"},
	{"function assigns a trigger", inState("function retune(long n) { t.ival = n; return n; }\n", "e = retune(10);"), 1, "function retune: assignment to undeclared name t"},
	{"function reads a trigger", inState("function read() { return t; }\n", "e = read();"), 1, "function read: undeclared name t"},
	{"initialiser forward reference", `machine M { place all;
  long a = b + 1; long b = 2;
  state s { when (enter) do { } } }`, 2, "init of a: undeclared name b"},
	{"initialiser self reference", `machine M { place all;
  long a = a + 1;
  state s { when (enter) do { } } }`, 2, "init of a: undeclared name a"},
	{"initialiser trigger read", `machine M { place all; time t = 5;
  float a = t;
  state s { when (enter) do { } } }`, 2, "init of a: trigger t can only be assigned, not read"},
	{"state initialiser reads a state variable", `machine M { place all; long e = 1;
  state s { long sv = e; long sv2 = sv + 1; when (enter) do { } } }`, 2, "state s: init of sv2: undeclared name sv"},
	{"state initialiser reads another state's variable", `machine M { place all;
  state s { long sv = 1; when (enter) do { } }
  state u { long w = sv; when (enter) do { } } }`, 3, "state u: init of w: undeclared name sv"},
	{"unknown resource in a util", `machine M { place all;
  state s {
    util (r) { if (r.vCPU >= 1) then { return r.GPU; } }
    when (enter) do { } } }`, 3, "state s: util: unknown resource GPU"},
	{"unknown resource in an ival", `machine M { place all;
  poll p = Poll { .ival = 10 / res().PCIE, .what = port ANY };
  state s { when (p as x) do { } } }`, 2, "trigger p: unknown resource PCIE"},
	{"unknown resource in a handler", inState("", "e = res().cpu;"), 8, "state s: unknown resource cpu"},
	{"arithmetic on a filter", `machine M { place all; time t = 5;
  state s {
    when (t as p) do {
      removeTCAMRule(port 0 - p);
    } } }`, 4, "state s: operator - is not defined on a filter"},
	{"ordered comparison on a filter", inState("", "if (dstPort 80 and proto \"tcp\" < 3) then { e = 1; }"), 8, "state s: operator < is not defined on a filter"},
	{"edge set: CondDeclEnvStateUndeclared", `
machine CondDeclEnvStateUndeclared {
  place all;
  time t = 5;
  long e;
  state s {
    long sv;
    when (t as tick) do {
      if (tick > 1) then { long e = 1; long sv = 2; long u = 3; }
      long a = e + sv + u;
      e = a;
      sv = a;
      u = a;
      long after = a;
    }
  }
}
`, 9, "state s: local e is already declared as a machine variable"},
	{"edge set: CondDeclFunction", `
function condDeclInFunction(long p) {
  if (p > 0) then { long x = 1; }
  long y = x + p;
  x = y;
  y = x;
  return y;
}
machine CondDeclFunction {
  place all;
  time t = 5;
  long x;
  state s {
    when (t) do { x = condDeclInFunction(x); }
  }
}
`, 4, "function condDeclInFunction: undeclared name x (a function sees only its parameters and its locals)"},
	{"edge set: LocalShadowsStateVar", `
machine LocalShadowsStateVar {
  place all;
  time t = 5;
  long e;
  state s {
    long v;
    when (t as tick) do {
      v = v + 1;
      long v = v * 2;
      v = v + e;
      long e = v;
      e = e + 1;
      send v to harvester;
    }
  }
}
`, 10, "state s: local v is already declared as a state variable"},
	{"edge set: DynLoadStore", `
function dynLoadStore(long n) {
  total = total + n;
  unknownInFunction = total;
  long z = alsoUnknown;
  return total;
}
machine DynLoadStore {
  place all;
  time t = 5;
  long total;
  state s {
    when (t) do { total = dynLoadStore(2); }
  }
}
`, 3, "function dynLoadStore: undeclared name total"},
	{"edge set: UndeclaredLoadThenCode", `
machine UndeclaredLoadThenCode {
  place all;
  time t = 5;
  long a;
  state s {
    when (t) do {
      a = 1;
      a = nowhere + 1;
      a = 2;
      if (a > 1) then { a = 3; }
    }
    when (enter) do {
      if (a > 0) then { a = ghost; a = 4; }
      a = 5;
    }
  }
}
`, 9, "state s: undeclared name nowhere"},
	{"edge set: UndeclaredStoreThenCode", `
machine UndeclaredStoreThenCode {
  place all;
  time t = 5;
  long a;
  state s {
    when (t) do {
      a = 1;
      nowhere = a + 1;
      a = 2;
      while (a < 9) { a = a + 1; }
    }
    when (enter) do {
      if (a > 0) then { ghost = a; a = 4; } else { a = 6; }
      a = 5;
    }
  }
}
`, 9, "state s: assignment to undeclared name nowhere"},
}

// TestSemaRejectsUnresolvedNames holds sema to one positioned error per
// construct that names something not in scope.
func TestSemaRejectsUnresolvedNames(t *testing.T) {
	for _, r := range semaRejections {
		prog, err := Parse(r.src)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", r.name, err, r.src)
		}
		_, err = Compile(prog)
		var se *SemaError
		if !errors.As(err, &se) || se.Line != r.line || !strings.Contains(se.Msg, r.msg) {
			t.Errorf("%s: Compile = %v, want line %d: %s\n%s", r.name, err, r.line, r.msg, r.src)
		}
	}
}
