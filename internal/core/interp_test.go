package core

import (
	"strings"
	"testing"

	"farm/internal/almanac"
)

// runSnippet wraps a statement block into a machine's enter handler,
// runs it, and returns the seed for inspection.
func runSnippet(t *testing.T, decls, body string) (*Seed, error) {
	t.Helper()
	src := `
machine T {
  place all;
  ` + decls + `
  state s {
    when (enter) do {
      ` + body + `
    }
  }
  state other {
    when (enter) do { }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	cm, err := almanac.CompileMachine(prog, "T")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s, err := NewSeed(cm, nil, newMockHost())
	if err != nil {
		t.Fatalf("new seed: %v", err)
	}
	return s, s.Start()
}

func TestInterpreterSnippets(t *testing.T) {
	cases := []struct {
		name   string
		decls  string
		body   string
		check  map[string]string // var -> expected FormatValue
		errSub string            // expected runtime error substring ("" = none)
	}{
		{
			name:  "integer arithmetic",
			decls: "long a; long b;",
			body:  "a = 7 * 6 - 2; b = a / 4;",
			check: map[string]string{"a": "40", "b": "10"},
		},
		{
			name:  "float promotion",
			decls: "float f;",
			body:  "f = 3 / 2.0;",
			check: map[string]string{"f": "1.5"},
		},
		{
			name:   "division by zero",
			decls:  "long a;",
			body:   "a = 1 / 0;",
			errSub: "division by zero",
		},
		{
			name:  "string concat and compare",
			decls: "string s; bool eq;",
			body:  `s = "a" + "b"; eq = s == "ab";`,
			check: map[string]string{"s": `"ab"`, "eq": "true"},
		},
		{
			name:  "list concat and helpers",
			decls: "list l; long n; bool has;",
			body:  "l = [1, 2] + [3]; n = list_len(l); has = list_contains(l, 3);",
			check: map[string]string{"l": "[1, 2, 3]", "n": "3", "has": "true"},
		},
		{
			name:  "map operations",
			decls: "map m; long v; long missing; long sz;",
			body: `m = map_set(m, "k", 5); v = map_get(m, "k", 0);
			       missing = map_get(m, "nope", 42); sz = map_len(m);`,
			check: map[string]string{"v": "5", "missing": "42", "sz": "1"},
		},
		{
			name:  "while with condition",
			decls: "long sum; long i;",
			body:  "i = 1; while (i <= 10) { sum = sum + i; i = i + 1; }",
			check: map[string]string{"sum": "55"},
		},
		{
			name:  "if else chains",
			decls: "long x; string cls;",
			body: `x = 7;
			       if (x > 10) then { cls = "big"; }
			       else if (x > 5) then { cls = "mid"; }
			       else { cls = "small"; }`,
			check: map[string]string{"cls": `"mid"`},
		},
		{
			name:  "short circuit and/or",
			decls: "bool a; bool b;",
			body:  "a = false and (1 / 0 == 1); b = true or (1 / 0 == 1);",
			check: map[string]string{"a": "false", "b": "true"},
		},
		{
			name:  "not and comparisons",
			decls: "bool a; bool b; bool c;",
			body:  "a = not (1 > 2); b = 3 <> 4; c = 2 <= 2;",
			check: map[string]string{"a": "true", "b": "true", "c": "true"},
		},
		{
			name:  "math builtins",
			decls: "long mn; long mx; long ab; long fl;",
			body:  "mn = min(3, 1, 2); mx = max(3, 1, 2); ab = abs(0 - 9); fl = floor(3.9);",
			check: map[string]string{"mn": "1", "mx": "3", "ab": "9", "fl": "3"},
		},
		{
			name:  "struct literal and field assignment",
			decls: "long out;",
			body: `Pair p = Pair { .a = 1, .b = 2 };
			       p.a = 10;
			       out = p.a + p.b;`,
			check: map[string]string{"out": "12"},
		},
		{
			name:  "filter values",
			decls: "filter f; bool removed;",
			body: `f = dstPort 80 and proto "tcp";
			       addTCAMRule(f, drop(), 5);
			       removed = removeTCAMRule(f);`,
			check: map[string]string{"removed": "true"},
		},
		{
			name:  "sketch roundtrip",
			decls: "list sk; long c;",
			body: `sk = sketch_new(64, 3);
			       sketch_add(sk, "k", 5);
			       sketch_add(sk, "k", 2);
			       c = sketch_count(sk, "k");`,
			check: map[string]string{"c": "7"},
		},
		{
			name:  "distinct estimate",
			decls: "list d; float est;",
			body: `d = distinct_new(1024);
			       distinct_add(d, "a"); distinct_add(d, "b"); distinct_add(d, "a");
			       est = distinct_estimate(d);`,
			// ~2 expected; exact value depends on the estimator, so just
			// range-check below.
		},
		{
			// Refused by sema, before the interpreter sees it.
			name:   "undeclared variable",
			decls:  "",
			body:   "nosuch = 1;",
			errSub: "line 8: state s: assignment to undeclared name nosuch",
		},
		{
			name:   "unknown function",
			decls:  "long a;",
			body:   "a = frobnicate(1);",
			errSub: "unknown function",
		},
		{
			name:   "list_get out of range",
			decls:  "long a;",
			body:   "a = list_get([1], 5);",
			errSub: "out of range",
		},
		{
			name:  "str rendering",
			decls: "string s;",
			body:  "s = str(42);",
			check: map[string]string{"s": `"42"`},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seed, err := runSnippetWithStructs(t, c.decls, c.body)
			if c.errSub != "" {
				if err == nil || !strings.Contains(err.Error(), c.errSub) {
					t.Fatalf("err = %v, want substring %q", err, c.errSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range c.check {
				v, ok := seed.Var(name)
				if !ok {
					t.Fatalf("variable %s missing", name)
				}
				if got := FormatValue(v); got != want {
					t.Fatalf("%s = %s, want %s", name, got, want)
				}
			}
			if c.name == "distinct estimate" {
				v, _ := seed.Var("est")
				f, ok := AsFloat(v)
				if !ok || f < 1 || f > 4 {
					t.Fatalf("est = %v, want ~2", v)
				}
			}
		})
	}
}

func runSnippetWithStructs(t *testing.T, decls, body string) (*Seed, error) {
	t.Helper()
	src := `
struct Pair { long a; long b; }
machine T {
  place all;
  ` + decls + `
  state s {
    when (enter) do {
      ` + body + `
    }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	cm, err := almanac.CompileMachine(prog, "T")
	if err != nil {
		return nil, err
	}
	s, err := NewSeed(cm, nil, newMockHost())
	if err != nil {
		t.Fatalf("new seed: %v", err)
	}
	return s, s.Start()
}

func TestRunSnippetHelperTransits(t *testing.T) {
	s, err := runSnippet(t, "long x;", "x = 1; transit other;")
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != "other" {
		t.Fatalf("state = %s", s.State())
	}
}
