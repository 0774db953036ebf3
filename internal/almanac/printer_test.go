package almanac

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// reprint parses, prints, re-parses, and re-prints: the second and
// third renderings must be byte-identical (Print is a fixed point of
// parse∘Print), and the two parses must compile to machines with equal
// XML encodings but for the source lines they carry.
func reprint(t *testing.T, src string) {
	t.Helper()
	prog1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	out1 := Print(prog1)
	prog2, err := Parse(out1)
	if err != nil {
		t.Fatalf("re-parse printed source: %v\n--- printed ---\n%s", err, out1)
	}
	out2 := Print(prog2)
	if out1 != out2 {
		t.Fatalf("Print not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
	// Semantic equivalence via the XML wire format.
	for _, m := range prog1.Machines {
		cm1, err := CompileMachine(prog1, m.Name)
		if err != nil {
			t.Fatalf("compile original %s: %v", m.Name, err)
		}
		cm2, err := CompileMachine(prog2, m.Name)
		if err != nil {
			t.Fatalf("compile printed %s: %v", m.Name, err)
		}
		x1, err := EncodeXML(cm1)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := EncodeXML(cm2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(xmlLines.ReplaceAll(x1, nil), xmlLines.ReplaceAll(x2, nil)) {
			t.Fatalf("machine %s changed through print round trip", m.Name)
		}
	}
}

// xmlLines matches the source-line attributes of an XML encoding.
var xmlLines = regexp.MustCompile(` line="[0-9]+"`)

func TestPrintHHRoundTrip(t *testing.T) {
	reprint(t, hhSource)
}

func TestPrintAllConstructs(t *testing.T) {
	src := `
struct Pair { long a; string b; }
function helper(long x) {
  long y = x * 2;
  while (y > 0) { y = y - 1; }
  if (y == 0) then { return y; } else { return x; }
}
machine Full {
  place any receiver (srcIP "10.0.0.0/8") range <= 1;
  place all "leaf0", "leaf1";
  place all;
  poll p = Poll { .ival = 10 / res().PCIe, .what = dstPort 80 and proto "tcp" };
  probe q = Probe { .ival = 1, .what = port ANY };
  time t = 100;
  external long limit = 5;
  list items;
  float frac = 0.5;
  state one {
    long localv;
    util (res) { if (res.vCPU >= 1 or res.RAM >= 100) then { return min(res.vCPU, max(res.PCIe, 2)); } }
    when (p as stats) do {
      items = list_append(items, stats);
      if (list_len(items) >= limit) then { transit two; }
    }
    when (q as pkt) do { localv = helper(limit); }
    when (t as tick) do { }
  }
  state two {
    when (enter) do {
      send items to harvester;
      send 1 to Full @ "leaf0";
      send 2 to Full;
      Pair pr = Pair { .a = 1, .b = "x" };
      p.ival = 20;
      items = [1, 2, 3] + [not (true)];
      transit one;
    }
    when (exit) do { }
    when (realloc) do { }
    when (recv Pair pp from Full @ "leaf1") do { }
    when (recv v from Other) do { }
  }
  when (recv long v from harvester) do { limit = v; }
}
`
	reprint(t, src)
}

func TestPrintedUtilityAnalysisAgrees(t *testing.T) {
	prog, err := Parse(hhSource)
	if err != nil {
		t.Fatal(err)
	}
	printed, err := Parse(Print(prog))
	if err != nil {
		t.Fatal(err)
	}
	cm1, _ := CompileMachine(prog, "HH")
	cm2, _ := CompileMachine(printed, "HH")
	u1, err := AnalyzeUtility(cm1.States[0].Util, nil)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := AnalyzeUtility(cm2.States[0].Util, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign := netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 200, netmodel.ResPCIe: 1.5}
	v1, ok1 := u1.Eval(assign)
	v2, ok2 := u2.Eval(assign)
	if ok1 != ok2 || v1 != v2 {
		t.Fatalf("utility diverged: %g,%v vs %g,%v", v1, ok1, v2, ok2)
	}
	_ = poly.Utility{}
}

func TestExprStringForms(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 + 2 * 3", "(1 + (2 * 3))"},
		{`"s"`, `"s"`},
		{"port ANY", "port ANY"},
		{"not true", "not (true)"},
		{"0.5", "0.5"},
		{"2.0", "2.0"},
	}
	for _, c := range cases {
		full := `machine M { place all; long x = ` + c.src + `; state s { when (enter) do {} } }`
		// port ANY is a filter; wrap differently.
		if strings.Contains(c.src, "port") {
			full = `machine M { place all; poll p = Poll { .ival = 1, .what = ` + c.src + ` }; state s { when (p as x) do {} } }`
		}
		prog, err := Parse(full)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		var got string
		if strings.Contains(c.src, "port") {
			got = ExprString(prog.Machines[0].Triggers[0].Init.(*StructLit).Fields[1].Val)
		} else {
			got = ExprString(prog.Machines[0].Vars[0].Init)
		}
		if got != c.want {
			t.Fatalf("%s printed as %s, want %s", c.src, got, c.want)
		}
	}
}
