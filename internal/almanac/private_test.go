package almanac_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/tasks"
)

// privateOf lowers every machine of src against the runtime library and
// returns each one's private maps, as "Machine.var".
func privateOf(t *testing.T, src string) []string {
	t.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	cms, err := almanac.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	var out []string
	for _, cm := range cms {
		lp, err := almanac.Lower(cm, core.BuiltinNames())
		if err != nil {
			t.Fatalf("lower %s: %v", cm.Name, err)
		}
		for _, n := range lp.Private {
			out = append(out, cm.Name+"."+n)
		}
	}
	return out
}

// TestPrivateMaps pins which map variables lowering treats as private
// (emptied in place by `x = map_new()`): every route by which x's map
// could reach another name makes x shared, the forms that cannot keep
// it private, and the catalogue's private set is pinned by name.
func TestPrivateMaps(t *testing.T) {
	const tmpl = `
struct S { long v; }
function g(map m) { return 1; }
function h() { return map_new(); }
%s
machine M {
  place all;
  time t = 5;
  map y;
  list l;
  S s;
  long n;
  %s
  state a {
    when (t as tick) do {
      %s
      x = map_new();
    }
  }
  state b {
    %s
    when (t as tick) do { n = 0; }
  }
}
`
	cases := []struct {
		name    string
		fn      string // an extra auxiliary function
		decl    string // x's declaration
		body    string // the handler body before the reset
		stateB  string // state b's variables
		private bool
	}{
		{name: "every allowed form", body: `x = map_set(x, "k", map_get(x, "k", 0) + 1);
      map_set(x, "j", 1); x = map_del(x, "j"); map_del(x, "z");
      n = map_len(x); bool has = map_has(x, "k"); list ks = map_keys(x);
      map inner = map_get(x, "k", map_new()); send x to harvester;`, private: true},
		{name: "initialised by map_new", decl: "map x = map_new();", private: true},
		{name: "never read", private: true},
		{name: "assigned to another variable", body: "y = x;"},
		{name: "assigned from another variable", body: "x = y;"},
		{name: "stored as a map value", body: `map_set(y, "k", x);`},
		{name: "stored as its own value", body: `x = map_set(x, "k", x);`},
		{name: "used as a key", body: `n = map_get(y, x, 0);`},
		{name: "used as a default", body: `y = map_get(y, "k", x);`},
		{name: "a list element", body: "l = [x];"},
		{name: "a struct field", body: "s = S { .v = x };"},
		{name: "a function argument", body: "n = g(x);"},
		{name: "a function return value", body: "x = h();"},
		{name: "returned", body: "return x;"},
		{name: "map_set result kept elsewhere", body: `y = map_set(x, "k", 1);`},
		{name: "map_set result nested", body: `n = map_len(map_set(x, "k", 1));`},
		{name: "written from another map's map_set", body: `x = map_set(y, "k", 1);`},
		{name: "assigned a map_get", body: `x = map_get(y, "k", map_new());`},
		{name: "a field read", body: "n = x.k;"},
		{name: "a field write", body: "x.k = 1;"},
		{name: "in a comparison", body: "bool same = x == y;"},
		{name: "rendered", body: "string txt = str(x);"},
		// A function sees only its parameters and its locals: these x are
		// other variables. (Naming the machine's x in a function, or
		// shadowing it, is a sema error.)
		{name: "a function's parameter of that name", fn: "function f2(map x) { x = map_set(x, 1, 2); return x; }", private: true},
		{name: "a function's local of that name", fn: "function f2() { map x = map_new(); return map_len(x); }", private: true},
		{name: "external", decl: "external map x;"},
		{name: "initialised from another map", decl: "map x = y;"},
		{name: "initialised by map_set", decl: `map x = map_set(map_new(), "k", 1);`},
		{name: "another variable initialised from it", decl: "map x; map z = x;"},
		{name: "sent inside a list", body: "send [x] to harvester;"},
	}
	for _, tc := range cases {
		decl := tc.decl
		if decl == "" {
			decl = "map x;"
		}
		src := fmt.Sprintf(tmpl, tc.fn, decl, tc.body, tc.stateB)
		got := slices.Contains(privateOf(t, src), "M.x")
		if got != tc.private {
			t.Errorf("%s: x private = %v, want %v\n%s", tc.name, got, tc.private, src)
		}
	}

	// A private state variable is reset in place in its own state.
	const stateSrc = `
machine St {
  place all;
  time t = 5;
  state a {
    map sx = map_new();
    when (t as tick) do { sx = map_set(sx, tick, 1); sx = map_new(); }
  }
}
`
	if got := privateOf(t, stateSrc); !slices.Equal(got, []string{"St.sx"}) {
		t.Errorf("state variable: private %v, want [St.sx]", got)
	}

	// Two states each declare an x. State b's x starts as y's map, so
	// resetting it in place would empty y: neither x is private, and
	// b's reset leaves y as it was.
	const twoSrc = `
machine Two {
  place all;
  time t = 5;
  map y;
  state b {
    map x = y;
    when (enter) do { y = map_set(y, "k", 1); x = map_new(); }
  }
  state a {
    map x;
    when (t as tick) do { x = map_set(x, tick, 1); x = map_new(); }
  }
}
`
	if got := privateOf(t, twoSrc); len(got) != 0 {
		t.Errorf("two states' x: private %v, want none", got)
	}
	prog, err := almanac.Parse(twoSrc)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "Two")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := core.Compile(cm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := lp.NewRunner(nil, struct{ core.Host }{}) // the machine calls no host method
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if y, _ := r.Var("y"); core.FormatValue(y) != "{k: 1}" {
		t.Errorf("after b's reset of x, y = %s, want {k: 1}", core.FormatValue(y))
	}

	var catalogue []string
	for _, d := range tasks.All() {
		for _, n := range privateOf(t, d.Source) {
			if !slices.Contains(catalogue, n) {
				catalogue = append(catalogue, n)
			}
		}
	}
	slices.Sort(catalogue)
	want := []string{
		"DDoS.synCount",
		"DNSReflect.quenched",
		"DNSReflect.reflectors",
		"DNSReflect.respBytes",
		"Entropy.counts",
		"FloodDefender.synBySrc",
		"FlowSizeDist.flowBytes",
		"HHHSolo.groupBytes",
		"LinkFail.lastBytes", // private, never reset
		"LinkFail.quietFor",
		"PartialTCP.completed",
		"PartialTCP.opened",
		"PortScan.probed",
		"SSHBrute.fails",
		"SYNFlood.acksSeen",
		"SYNFlood.synsSeen",
		"Slowloris.partialsByDst",
		"SuperSpreader.fanout",
	}
	if !slices.Equal(catalogue, want) {
		t.Errorf("catalogue private maps:\n got %s\nwant %s", strings.Join(catalogue, " "), strings.Join(want, " "))
	}
}
