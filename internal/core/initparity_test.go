package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"farm/internal/almanac"
)

// Construction parity. A seed is built from its machine's variable
// initialisers and the deployment's bindings of its external variables:
// the machine variables in declaration order, each seeing only the ones
// built before it, then every state's variables, which see the machine
// variables only. Sema holds initialisers to that and refuses the rest
// with a positioned error. An initialiser may call functions, which see
// no variable, and may send, install rules, recurse or fail. The oracle
// (NewSeed) evaluates all of it on the AST, production (Compile +
// NewRunner) as register code. Both must agree on the construction
// error and the host effects construction had, and on success on the
// first snapshot and on everything Start and the first message do —
// over hand-picked cases and random initialisers.

// initPrelude is the function library the initialisers below call.
const initPrelude = `
struct Pair { long a; long b; }
function snd(long v) { send v to harvester; return v; }
function rule(long v) { addTCAMRule(port v, drop(), 5); return v; }
function tr() { transit t; }
function down(long n) { if (n <= 0) then { return 0; } return 1 + down(n - 1); }
function forever(long n) { return forever(n + 1); }
function noisy(long v) { log_msg("init " + str(v)); return exec("hook", v); }
`

// initMachine renders machine T with the given machine variables and
// the variables of its two states, s (the initial one) and t.
func initMachine(vars, sVars, tVars string) string {
	return initFuncsMachine("", vars, sVars, tVars)
}

// initFuncsMachine is initMachine with more functions after the prelude.
func initFuncsMachine(funcs, vars, sVars, tVars string) string {
	return initPrelude + funcs + `
machine T {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  ` + vars + `
  state s {
    ` + sVars + `
    when (enter) do { send 1 to harvester; }
    when (recv long x from harvester) do { transit t; }
  }
  state t {
    ` + tVars + `
    when (enter) do { send 2 to harvester; }
  }
}
`
}

// initOutcome is what construction, Start and one message leave
// observable on one executor.
type initOutcome struct {
	err         string // construction error, "" when it built
	trace       string // host effects of construction
	ctorActions int    // actions charged for construction
	after       string // snapshots, action counts and host effects after it
}

func buildOutcome(be string, cm *almanac.CompiledMachine, ext map[string]Value) initOutcome {
	h := newMockHost()
	r, err := newParityRunner(be, cm, cloneExternals(ext), h)
	o := initOutcome{trace: hostTrace(h)}
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.ctorActions = r.TakeActionCount()
	var b strings.Builder
	fmt.Fprintf(&b, "built:\n%s", fingerprint(r))
	fmt.Fprintf(&b, "start: %v\n", r.Start())
	fmt.Fprintf(&b, "actions=%d\n%s", r.TakeActionCount(), fingerprint(r))
	fmt.Fprintf(&b, "recv: %v\n", r.HandleRecv(MsgSource{Harvester: true}, int64(1)))
	fmt.Fprintf(&b, "actions=%d\n%s%s", r.TakeActionCount(), fingerprint(r), hostTrace(h))
	o.after = b.String()
	return o
}

// checkInitParity builds src's machine T on both executors and fails on
// any difference; it returns the interpreter's outcome.
func checkInitParity(t *testing.T, src string, ext map[string]Value) initOutcome {
	t.Helper()
	cm := parityCompile(t, src, "T")
	ref := buildOutcome(parityBackends[0], cm, ext)
	got := buildOutcome(parityBackends[1], cm, ext)
	if ref.err != got.err {
		t.Fatalf("construction error diverged\ninterp:   %s\nregister: %s\n%s", ref.err, got.err, src)
	}
	if ref.trace != got.trace {
		t.Fatalf("construction host effects diverged\n--- interp ---\n%s--- register ---\n%s%s", ref.trace, got.trace, src)
	}
	if got.ctorActions != 0 {
		t.Fatalf("construction charged %d actions to the runner, want 0\n%s", got.ctorActions, src)
	}
	if ref.after != got.after {
		t.Fatalf("seed diverged after construction\n--- interp ---\n%s--- register ---\n%s%s", ref.after, got.after, src)
	}
	return ref
}

func TestInitParityCases(t *testing.T) {
	cases := []struct {
		name               string
		fn                 string // functions beyond the prelude
		vars, sVars, tVars string
		ext                map[string]Value
		want               string // in the construction error; "" = it builds
		seen               string // in the built seed's first snapshot
		sema               string // sema refuses the machine with this
	}{
		{name: "backward references", vars: `long a = 2; long b = a * 3 + 1; string s1 = "x" + str(b);`, seen: `env s1="x7"`},
		{name: "zero values", vars: "long a; float f; string s1; list l; map m; filter fl; action ac; bool bo; Pair pr;", sVars: "long sv;", tVars: "long w;"},
		{name: "composite initialisers", vars: `list l = [1, 2] + [3]; map m = map_set(map_new(), "k", 1); Pair pr = Pair { .a = 1, .b = 2 }; filter f = dstPort 80 and proto "tcp"; float c = res().vCPU; float n = now();`},
		{name: "forward reference", vars: "long a = b + 1; long b = 2;", sema: "init of a: undeclared name b"},
		{name: "self reference", vars: "long a = a + 1;", sema: "init of a: undeclared name a"},
		{name: "a trigger is no variable", vars: "float a = p;", sema: "init of a: trigger p can only be assigned, not read"},
		{name: "short circuit skips a forward reference", vars: "bool a = false and b; bool b = true;", sema: "init of a: undeclared name b"},
		{name: "short circuit reaches a forward reference", vars: "bool a = true and b; bool b = true;", sema: "init of a: undeclared name b"},
		{name: "state variable reads a local of its own state", sVars: "long sv = 1; long sv2 = sv + 1;", sema: "state s: init of sv2: undeclared name sv"},
		{name: "state variable reads the machine variable of that name", vars: "long sv = 10;", sVars: "long sv = 1; long sv2 = sv + 1;", sema: "state s: state variable sv is already declared as a machine variable"},
		{name: "state variable reads another state's", sVars: "long sv = 1;", tVars: "long w = sv;", sema: "state t: init of w: undeclared name sv"},
		{name: "function reads a machine variable built before", fn: rdg, vars: "long g = 4; long h = rdg();", sema: "function rdg: undeclared name g"},
		{name: "function reads a machine variable not built yet", fn: rdg, vars: "long h = rdg(); long g = 4;", sema: "function rdg: undeclared name g"},
		{name: "function reads the initial state before it is built", fn: rd, vars: "long a = rd();", sVars: "long sv = 5;", sema: "function rd: undeclared name sv"},
		{name: "function reads the initial state from its own initialisers", fn: rd, sVars: "long sv = 5; long sv2 = rd();", sema: "function rd: undeclared name sv"},
		{name: "function falls back to the machine variable", fn: rd, vars: "long sv = 9;", sVars: "long sv2 = rd();", sema: "function rd: undeclared name sv"},
		{name: "function reads the initial state once built", fn: rd, sVars: "long sv = 5;", tVars: "long w = rd();", sema: "function rd: undeclared name sv"},
		{name: "function writes the initial state once built", fn: setsv, sVars: "long sv = 5;", tVars: "long w = setsv(8);", sema: "function setsv: assignment to undeclared name sv"},
		{name: "function writes the initial state before it is built", fn: setsv, sVars: "long sv = 5; long sv2 = setsv(8);", sema: "function setsv: assignment to undeclared name sv"},
		{name: "function writes a machine variable built before", fn: setg, vars: "long g = 1; long h = setg(7);", sema: "function setg: assignment to undeclared name g"},
		{name: "function writes a machine variable not built yet", fn: setg, vars: "long h = setg(7); long g = 1;", sema: "function setg: assignment to undeclared name g"},
		{name: "function writes a field of a machine variable", fn: setpa, vars: "Pair pa = Pair { .a = 1, .b = 2 }; long h = setpa(5);", sema: "function setpa: assignment to undeclared name pa"},
		{name: "function writes a field of a machine variable not built yet", fn: setpa, vars: "long h = setpa(5); Pair pa = Pair { .a = 1, .b = 2 };", sema: "function setpa: assignment to undeclared name pa"},
		{name: "a function's local may reuse a machine variable's name", fn: "function shade(long v) { long g = v * 2; return g; }", vars: "long g = 1; long h = shade(4);", seen: "env h=8"},
		{name: "sends from initialisers", vars: "long a = snd(3);", sVars: "long sv = snd(4);", tVars: "long w = snd(5);"},
		{name: "rule from an initialiser", vars: "long a = rule(3);", sVars: "long sv = rule(4);"},
		{name: "trigger retuned from an initialiser", fn: "function tune(long v) { p.ival = v; return v; }", vars: "long a = tune(50);", sema: "function tune: assignment to undeclared name p"},
		{name: "log and exec from an initialiser", vars: "long a = 1; long b = noisy(a);"},
		{name: "transit from an initialiser", vars: "long a = tr();", want: "core: T: init of a: core: transit inside function tr is not allowed"},
		{name: "transit from a state initialiser", tVars: "long w = tr();", want: "core: T: state t: init of w: core: transit inside function tr is not allowed"},
		{name: "error after side effects", vars: "long a = snd(1); long b = 1 / 0; long c = snd(2);", want: "core: T: init of b: core: division by zero (line"},
		{name: "bound external keeps the binding", vars: "external long th = 5; long a = th + 1;", ext: map[string]Value{"th": int64(100)}, seen: "env a=101"},
		{name: "unbound external keeps its initialiser", vars: "external long th = 5; long a = th + 1;", seen: "env a=6"},
		{name: "bound external's initialiser still runs", vars: "external long th = snd(5);", ext: map[string]Value{"th": int64(100)}, seen: "env th=100"},
		{name: "bound external's initialiser still fails", vars: "external long th = 1 / 0;", ext: map[string]Value{"th": int64(100)}, want: "core: T: init of th: core: division by zero"},
		{name: "external without initialiser", vars: "external long th; long a = th * 2;", ext: map[string]Value{"th": int64(21)}, seen: "env a=42"},
		{name: "external bound to a list", vars: "external list l; long n = list_len(l);", ext: map[string]Value{"l": List{int64(1), int64(2)}}, seen: "env n=2"},
		{name: "external not bound", vars: "external long th;", want: "core: T: external variable th not bound at deployment"},
		{name: "unknown external", vars: "long a;", ext: map[string]Value{"typo": int64(1)}, want: "core: T: unknown external variable typo"},
		{name: "recursion within the depth bound", vars: "long a = down(150);", seen: "env a=150"},
		{name: "recursion past the depth bound", vars: "long a = forever(0);", want: "core: T: init of a: core: call of forever nests deeper than 200"},
		{name: "recursion past the depth bound in a state", sVars: "long sv = down(1000);", want: "core: T: state s: init of sv: core: call of down nests deeper than 200"},
		{name: "runtime error in a state initialiser", sVars: "long sv = list_get([1], 5);", want: "core: T: state s: init of sv: core: list_get index 5 out of range [0,1) (line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := initFuncsMachine(c.fn, c.vars, c.sVars, c.tVars)
			if c.sema != "" {
				refusedBySema(t, src, "T", c.sema)
				return
			}
			o := checkInitParity(t, src, c.ext)
			if c.want == "" && o.err != "" {
				t.Fatalf("construction failed: %s", o.err)
			}
			if !strings.Contains(o.err, c.want) {
				t.Fatalf("construction error %q, want it to contain %q", o.err, c.want)
			}
			if c.seen != "" && !strings.Contains(o.after, c.seen) {
				t.Fatalf("built seed lacks %q:\n%s", c.seen, o.after)
			}
		})
	}
}

// Functions that name variables a function cannot see: sema refuses
// every machine that has one.
const (
	rd    = "function rd() { return sv; }\n"
	rdg   = "function rdg() { return g; }\n"
	setg  = "function setg(long v) { g = v; return v; }\n"
	setsv = "function setsv(long v) { sv = v; return v; }\n"
	setpa = "function setpa(long v) { pa.a = v; return v; }\n"
)

// initGen draws the storm's initialisers. A name it draws is one the
// initialiser can see, except now and then (one in five) any of the
// storm's names: if that one is not visible, sema must refuse the
// machine.
type initGen struct {
	rng     *rand.Rand
	visible []string
	strayed bool // drew a name its initialiser cannot see
}

var initNames = []string{"g", "h", "k", "th", "sv", "sv2", "w"}

func (g *initGen) name() string {
	if g.rng.Intn(5) == 0 {
		n := initNames[g.rng.Intn(len(initNames))]
		g.strayed = g.strayed || !slices.Contains(g.visible, n)
		return n
	}
	if len(g.visible) == 0 {
		return fmt.Sprint(g.rng.Intn(10))
	}
	return g.visible[g.rng.Intn(len(g.visible))]
}

// expr draws an initialiser over the visible names and the prelude,
// side effects and faults included.
func (g *initGen) expr(depth int) string {
	rng := g.rng
	leaf := depth <= 0
	switch k := rng.Intn(40); {
	case k < 14 || (leaf && k < 30):
		return fmt.Sprint(rng.Intn(10))
	case k < 18:
		return g.name()
	case k < 30:
		return g.expr(depth-1) + []string{" + ", " * ", " - "}[rng.Intn(3)] + g.expr(depth-1)
	case k < 39:
		switch rng.Intn(7) {
		case 0:
			return "snd(" + g.expr(depth-1) + ")"
		case 1:
			return fmt.Sprintf("rule(%d)", 1+rng.Intn(4))
		case 2:
			return fmt.Sprintf("down(%d)", rng.Intn(5))
		case 3:
			return "noisy(" + g.expr(depth-1) + ")"
		case 4:
			return "tr()"
		default:
			return "[" + g.expr(depth-1) + "]"
		}
	default:
		return []string{"1 / 0", "down(500)", "list_get([], 0)"}[rng.Intn(3)]
	}
}

// decl declares name, with an initialiser two times in three.
func (g *initGen) decl(name string) string {
	if g.rng.Intn(3) == 0 {
		return "long " + name + ";"
	}
	return "long " + name + " = " + g.expr(2) + ";"
}

// TestInitParityStorm builds random machines: the machine variables g,
// h, k and th in random order, some external, some bound, now and then
// an unknown binding; state s's sv and sv2, state t's w; initialisers
// reading the names they can see, calling the prelude, and now and then
// naming one they cannot, which sema must refuse.
func TestInitParityStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n := 1500
	if testing.Short() {
		n = 300
	}
	built, refused := 0, 0
	for i := 0; i < n; i++ {
		g := &initGen{rng: rng}
		var vars, sVars, tVars strings.Builder
		ext := map[string]Value{}
		for _, j := range rng.Perm(4) {
			name := []string{"g", "h", "k", "th"}[j]
			if rng.Intn(3) != 0 {
				if rng.Intn(3) == 0 {
					vars.WriteString("external ")
					if rng.Intn(4) != 0 {
						ext[name] = int64(rng.Intn(100))
					}
				}
				vars.WriteString(g.decl(name) + " ")
				g.visible = append(g.visible, name)
			}
		}
		if rng.Intn(10) == 0 {
			ext["typo"] = int64(1)
		}
		for _, name := range []string{"sv", "sv2"} {
			if rng.Intn(3) != 0 {
				sVars.WriteString(g.decl(name) + " ")
			}
		}
		if rng.Intn(2) == 0 {
			tVars.WriteString(g.decl("w"))
		}
		src := initMachine(vars.String(), sVars.String(), tVars.String())
		if g.strayed {
			refusedBySema(t, src, "T", "undeclared name")
			refused++
			continue
		}
		if o := checkInitParity(t, src, ext); o.err == "" {
			built++
		}
	}
	// The storm is only worth its time if every outcome is common.
	t.Logf("of %d random machines: %d refused by sema, %d built", n, refused, built)
	if accepted := n - refused; refused < n/20 || built < accepted/5 || built > accepted*4/5 {
		t.Fatalf("of %d random machines: %d refused by sema, %d built", n, refused, built)
	}
}
