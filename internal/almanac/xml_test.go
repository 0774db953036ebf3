package almanac

import (
	"bytes"
	"strings"
	"testing"

	"farm/internal/netmodel"
)

// roundTrip encodes, decodes, re-encodes, and requires byte equality —
// a fixed point proves the wire format loses nothing the encoder emits.
func roundTrip(t *testing.T, cm *CompiledMachine) *CompiledMachine {
	t.Helper()
	first, err := EncodeXML(cm)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeXML(first)
	if err != nil {
		t.Fatalf("decode: %v\nxml:\n%s", err, first)
	}
	second, err := EncodeXML(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	return decoded
}

func TestXMLRoundTripHH(t *testing.T) {
	cm := mustCompile(t, hhSource, "HH")
	got := roundTrip(t, cm)
	if got.Name != "HH" || got.InitialState != "observe" {
		t.Fatalf("decoded header = %s/%s", got.Name, got.InitialState)
	}
	if len(got.States) != 2 || len(got.Triggers) != 1 || len(got.Vars) != 3 {
		t.Fatalf("decoded shape: states=%d triggers=%d vars=%d",
			len(got.States), len(got.Triggers), len(got.Vars))
	}
	// Analyses must agree on the decoded machine.
	env := map[string]Const{"threshold": NumConst(1000)}
	u1, err := AnalyzeUtility(cm.States[0].Util, env)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := AnalyzeUtility(got.States[0].Util, env)
	if err != nil {
		t.Fatal(err)
	}
	assign := netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 200, netmodel.ResPCIe: 1}
	v1, ok1 := u1.Eval(assign)
	v2, ok2 := u2.Eval(assign)
	if ok1 != ok2 || v1 != v2 {
		t.Fatalf("utility diverged after round trip: %g,%v vs %g,%v", v1, ok1, v2, ok2)
	}
	p1, err := AnalyzePolls(cm, env)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := AnalyzePolls(got, env)
	if err != nil {
		t.Fatal(err)
	}
	if !p1[0].RatePerSec.Equal(p2[0].RatePerSec, 1e-12) {
		t.Fatalf("poll rate diverged: %v vs %v", p1[0].RatePerSec, p2[0].RatePerSec)
	}
}

func TestXMLRoundTripAllConstructs(t *testing.T) {
	src := `
struct Pair { long a; string b; }
function helper(long x) {
  long y = x * 2;
  while (y > 0) { y = y - 1; }
  if (y == 0) then { return y; } else { return x; }
}
machine Full {
  place any receiver (srcIP "10.0.0.0/8") range <= 1;
  place all "leaf0";
  poll p = Poll { .ival = 10 / res().PCIe, .what = dstPort 80 and proto "tcp" };
  time t = 100;
  external long limit = 5;
  list items;
  state one {
    long localv;
    util (res) { if (res.vCPU >= 1) then { return min(res.vCPU, 10); } }
    when (p as stats) do {
      items = list_append(items, stats);
      if (list_len(items) >= limit) then { transit two; }
    }
    when (t as tick) do { localv = helper(limit); }
  }
  state two {
    when (enter) do {
      send items to harvester;
      send 1 to Full @ "leaf0";
      Pair pr = Pair { .a = 1, .b = "x" };
      p.ival = 20;
      transit one;
    }
    when (exit) do { items = [1, 2, 3]; }
    when (realloc) do { }
    when (recv Pair pp from Full @ "leaf1") do { }
  }
  when (recv long v from harvester) do { limit = v; }
}
`
	cm := mustCompile(t, src, "Full")
	got := roundTrip(t, cm)
	if len(got.Placements) != 2 || len(got.Funcs) != 1 || len(got.Structs) != 1 {
		t.Fatalf("decoded shape: placements=%d funcs=%d structs=%d",
			len(got.Placements), len(got.Funcs), len(got.Structs))
	}
	if !got.Placements[0].HasRange || got.Placements[0].Anchor != "receiver" {
		t.Fatalf("placement 0 = %+v", got.Placements[0])
	}
	two, ok := got.State("two")
	if !ok {
		t.Fatal("state two missing")
	}
	kinds := map[TriggerKind]int{}
	for _, ev := range two.Events {
		kinds[ev.Trigger.Kind]++
	}
	if kinds[TrigOnEnter] != 1 || kinds[TrigOnExit] != 1 || kinds[TrigOnRealloc] != 1 || kinds[TrigOnRecv] != 2 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

func TestXMLDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeXML([]byte("not xml at all")); err == nil {
		t.Fatal("expected decode error")
	}
	bad := `<machine name="M" initial="s"><state name="s"><event kind="nope"></event></state></machine>`
	if _, err := DecodeXML([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Fatalf("err = %v", err)
	}
	badExpr := `<machine name="M" initial="s"><var type="long" name="x"><init><node kind="mystery"></node></init></var></machine>`
	if _, err := DecodeXML([]byte(badExpr)); err == nil || !strings.Contains(err.Error(), "unknown expression kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestXMLIsHumanReadable(t *testing.T) {
	cm := mustCompile(t, hhSource, "HH")
	data, err := EncodeXML(cm)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`machine name="HH"`, `initial="observe"`, `state name="HHdetected"`, `kind="transit"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("xml missing %q:\n%s", want, s)
		}
	}
}
