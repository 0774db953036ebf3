package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"farm/internal/almanac"
)

// Construction parity. A seed is built from its machine's variable
// initialisers and the deployment's bindings of its external variables:
// the machine variables in declaration order, each seeing only the ones
// built before it, then every state's variables, which see the machine
// variables only. An initialiser may call functions; those resolve names
// through the initial state (once all its variables exist) and the
// machine variables built so far, and may send, install rules, retune
// triggers, recurse or fail. The oracle (NewSeed) evaluates all of it on
// the AST, production (Compile + NewRunner) as register code. Both must
// agree on the construction error and the host effects construction had,
// and on success on the first snapshot and on everything Start and the
// first message do — over hand-picked cases and random initialisers.

// initPrelude is the function library the initialisers below call.
const initPrelude = `
struct Pair { long a; long b; }
function rd() { return sv; }
function rdg() { return g; }
function snd(long v) { send v to harvester; return v; }
function rule(long v) { addTCAMRule(port v, drop(), 5); return v; }
function tr() { transit t; }
function setg(long v) { g = v; return v; }
function setsv(long v) { sv = v; return v; }
function setpa(long v) { pa.a = v; return v; }
function down(long n) { if (n <= 0) then { return 0; } return 1 + down(n - 1); }
function forever(long n) { return forever(n + 1); }
function tune(long v) { p.ival = v; return v; }
function noisy(long v) { log_msg("init " + str(v)); return exec("hook", v); }
`

// initMachine renders machine T with the given machine variables and
// the variables of its two states, s (the initial one) and t.
func initMachine(vars, sVars, tVars string) string {
	return initPrelude + `
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
		vars, sVars, tVars string
		ext                map[string]Value
		want               string // in the construction error; "" = it builds
		seen               string // in the built seed's first snapshot
	}{
		{name: "backward references", vars: `long a = 2; long b = a * 3 + 1; string s1 = "x" + str(b);`, seen: `env s1="x7"`},
		{name: "zero values", vars: "long a; float f; string s1; list l; map m; filter fl; action ac; bool bo; Pair pr;", sVars: "long sv;", tVars: "long w;"},
		{name: "composite initialisers", vars: `list l = [1, 2] + [3]; map m = map_set(map_new(), "k", 1); Pair pr = Pair { .a = 1, .b = 2 }; filter f = dstPort 80 and proto "tcp"; float c = res().vCPU; float n = now();`},
		{name: "forward reference", vars: "long a = b + 1; long b = 2;", want: "core: T: init of a: core: undeclared variable b (line"},
		{name: "self reference", vars: "long a = a + 1;", want: "core: T: init of a: core: undeclared variable a (line"},
		{name: "a trigger is no variable", vars: "float a = p;", want: "init of a: core: undeclared variable p"},
		{name: "short circuit skips a forward reference", vars: "bool a = false and b; bool b = true;", seen: "env a=false"},
		{name: "short circuit reaches a forward reference", vars: "bool a = true and b; bool b = true;", want: "init of a: core: undeclared variable b"},
		{name: "state variable reads a local of its own state", sVars: "long sv = 1; long sv2 = sv + 1;", want: "core: T: state s: init of sv2: core: undeclared variable sv (line"},
		{name: "state variable reads the machine variable of that name", vars: "long sv = 10;", sVars: "long sv = 1; long sv2 = sv + 1;", seen: "var s.sv2=11"},
		{name: "state variable reads another state's", sVars: "long sv = 1;", tVars: "long w = sv;", want: "core: T: state t: init of w: core: undeclared variable sv"},
		{name: "function reads a machine variable built before", vars: "long g = 4; long h = rdg();", seen: "env h=4"},
		{name: "function reads a machine variable not built yet", vars: "long h = rdg(); long g = 4;", want: "init of h: core: undeclared variable g"},
		{name: "function reads the initial state before it is built", vars: "long a = rd();", sVars: "long sv = 5;", want: "init of a: core: undeclared variable sv"},
		{name: "function reads the initial state from its own initialisers", sVars: "long sv = 5; long sv2 = rd();", want: "state s: init of sv2: core: undeclared variable sv"},
		{name: "function falls back to the machine variable", vars: "long sv = 9;", sVars: "long sv = 5; long sv2 = rd();", seen: "var s.sv2=9"},
		{name: "function reads the initial state once built", sVars: "long sv = 5;", tVars: "long w = rd();", seen: "var t.w=5"},
		{name: "function writes the initial state once built", sVars: "long sv = 5;", tVars: "long w = setsv(8);", seen: "var s.sv=8"},
		{name: "function writes the initial state before it is built", sVars: "long sv = 5; long sv2 = setsv(8);", want: "state s: init of sv2: core: assignment to undeclared variable sv"},
		{name: "function writes a machine variable built before", vars: "long g = 1; long h = setg(7);", seen: "env g=7"},
		{name: "function writes a machine variable not built yet", vars: "long h = setg(7); long g = 1;", want: "init of h: core: assignment to undeclared variable g"},
		{name: "function writes a field of a machine variable", vars: "Pair pa = Pair { .a = 1, .b = 2 }; long h = setpa(5);", seen: "env pa=Pair{a: 5, b: 2}"},
		{name: "function writes a field of a machine variable not built yet", vars: "long h = setpa(5); Pair pa = Pair { .a = 1, .b = 2 };", want: "init of h: core: assignment to undeclared variable pa"},
		{name: "sends from initialisers", vars: "long a = snd(3);", sVars: "long sv = snd(4);", tVars: "long w = snd(5);"},
		{name: "rule from an initialiser", vars: "long a = rule(3);", sVars: "long sv = rule(4);"},
		{name: "trigger retuned from an initialiser", vars: "long a = tune(50);"},
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
			o := checkInitParity(t, initMachine(c.vars, c.sVars, c.tVars), c.ext)
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

// randInitExpr draws an initialiser over the names and functions the
// storm's machines share, forward references, side effects and faults
// included.
func randInitExpr(rng *rand.Rand, depth int) string {
	leaf := depth <= 0
	switch k := rng.Intn(40); {
	case k < 14 || (leaf && k < 30):
		return fmt.Sprint(rng.Intn(10))
	case k < 18:
		return []string{"g", "h", "k", "th", "sv", "sv2", "w"}[rng.Intn(7)]
	case k < 30:
		return randInitExpr(rng, depth-1) + []string{" + ", " * ", " - "}[rng.Intn(3)] + randInitExpr(rng, depth-1)
	case k < 39:
		switch rng.Intn(11) {
		case 0:
			return "rdg()"
		case 1:
			return "rd()"
		case 2:
			return "snd(" + randInitExpr(rng, depth-1) + ")"
		case 3:
			return fmt.Sprintf("rule(%d)", 1+rng.Intn(4))
		case 4:
			return fmt.Sprintf("setg(%d)", rng.Intn(10))
		case 5:
			return fmt.Sprintf("setsv(%d)", rng.Intn(10))
		case 6:
			return fmt.Sprintf("down(%d)", rng.Intn(5))
		case 7:
			return fmt.Sprintf("tune(%d)", 1+rng.Intn(90))
		case 8:
			return "noisy(" + randInitExpr(rng, depth-1) + ")"
		case 9:
			return "tr()"
		default:
			return "[" + randInitExpr(rng, depth-1) + "]"
		}
	default:
		return []string{"1 / 0", "down(500)", "list_get([], 0)"}[rng.Intn(3)]
	}
}

// randDecl declares name, with an initialiser two times in three.
func randDecl(rng *rand.Rand, name string) string {
	if rng.Intn(3) == 0 {
		return "long " + name + ";"
	}
	return "long " + name + " = " + randInitExpr(rng, 2) + ";"
}

// TestInitParityStorm builds random machines: the machine variables g,
// h, k and th in random order, some external, some bound, now and then
// an unknown binding; state s's sv and sv2, state t's w; initialisers
// reading any of them and calling the prelude.
func TestInitParityStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n := 1500
	if testing.Short() {
		n = 300
	}
	built := 0
	for i := 0; i < n; i++ {
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
				vars.WriteString(randDecl(rng, name) + " ")
			}
		}
		if rng.Intn(10) == 0 {
			ext["typo"] = int64(1)
		}
		for _, name := range []string{"sv", "sv2"} {
			if rng.Intn(3) != 0 {
				sVars.WriteString(randDecl(rng, name) + " ")
			}
		}
		if rng.Intn(2) == 0 {
			tVars.WriteString(randDecl(rng, "w"))
		}
		if o := checkInitParity(t, initMachine(vars.String(), sVars.String(), tVars.String()), ext); o.err == "" {
			built++
		}
	}
	// The storm is only worth its time if both outcomes are common.
	t.Logf("%d of %d random machines built", built, n)
	if built < n/5 || built > n*4/5 {
		t.Fatalf("%d of %d random machines built", built, n)
	}
}
