package seeder

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/placement"
	"farm/internal/soil"
	"farm/internal/tasks"
)

func hhSpec(name string) TaskSpec {
	return TaskSpec{
		Name:      name,
		Source:    hhTaskSource,
		Externals: map[string]map[string]core.Value{"HH": {"threshold": int64(1_000_000)}},
	}
}

// tickerSource generates a distinct, valid one-machine source per i.
func tickerSource(i int) string {
	return fmt.Sprintf(`
machine Tick%d {
  place any;
  time tick = %d;
  long count;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (tick as x) do { count = count + %d; }
  }
}`, i, 100+i, i)
}

// TestResubmitCompilesNothing: the second submit of a source — after a
// retire in between — takes its programs from the store: the same
// *core.Program as the first time, shared by every seed of the task, and
// no parse, sema, XML or lowering work.
func TestResubmitCompilesNothing(t *testing.T) {
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	progs := func() []*core.Program {
		var out []*core.Program
		for _, s := range sd.tasks["hh"].seeds {
			out = append(out, s.m.prog)
		}
		return out
	}
	if err := sd.AddTask(hhSpec("hh")); err != nil {
		t.Fatal(err)
	}
	first := progs()
	if len(first) != 3 {
		t.Fatalf("%d seeds, want 3 (place all on 3 switches)", len(first))
	}
	for i, p := range first {
		if p != first[0] {
			t.Fatalf("seed %d runs program %p, seed 0 %p: one task, one machine, one program", i, p, first[0])
		}
	}
	if err := sd.RemoveTask("hh"); err != nil {
		t.Fatal(err)
	}
	if err := sd.AddTask(hhSpec("hh")); err != nil {
		t.Fatal(err)
	}
	if second := progs(); second[0] != first[0] {
		t.Fatalf("resubmit compiled a new program (%p, was %p)", second[0], first[0])
	}
	if err := sd.RemoveTask("hh"); err != nil {
		t.Fatal(err)
	}

	// The cost side, on one switch so placement stays small: a warm
	// submit + retire against a cold one (a fresh seeder each time).
	cycle := func(sd *Seeder) {
		if err := sd.AddTask(hhSpec("hh")); err != nil {
			t.Fatal(err)
		}
		if err := sd.RemoveTask("hh"); err != nil {
			t.Fatal(err)
		}
	}
	fab1, _ := testSetup(t, 1, 1, 1)
	cold := testing.AllocsPerRun(5, func() { cycle(New(fab1, Options{})) })
	warmSd := New(fab1, Options{})
	cycle(warmSd)
	warm := testing.AllocsPerRun(20, func() { cycle(warmSd) })
	t.Logf("submit+retire of HH on one switch: cold %.0f allocs, warm %.0f", cold, warm)
	// Measured: cold ≈ 3 160 (most of it the XML codec), warm ≈ 100 —
	// resolution, placement and the deploy itself.
	const warmBound = 700
	if warm > warmBound {
		t.Fatalf("warm submit+retire = %.0f allocs, want <= %d: the store is not being hit", warm, warmBound)
	}
	if cold < 2*warmBound {
		t.Fatalf("cold submit+retire = %.0f allocs: the bound %d no longer separates warm from cold", cold, warmBound)
	}
}

// TestProgramStoreBounded is core.lowerCache's leak (PR 17) in reverse:
// the store keeps what live tasks reference plus at most maxIdleSources
// idle entries, however many distinct sources pass through.
func TestProgramStoreBounded(t *testing.T) {
	fab, _ := testSetup(t, 1, 1, 1)
	sd := New(fab, Options{})
	const live = 3
	for i := 0; i < live; i++ {
		if err := sd.AddTask(TaskSpec{Name: fmt.Sprintf("live%d", i), Source: tickerSource(1_000_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var settled uint64
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := sd.AddTask(TaskSpec{Name: name, Source: tickerSource(i)}); err != nil {
			t.Fatal(err)
		}
		if err := sd.RemoveTask(name); err != nil {
			t.Fatal(err)
		}
		if n := len(sd.programs.bySource); n > live+maxIdleSources {
			t.Fatalf("after %d sources the store holds %d entries, bound is %d live + %d idle", i+1, n, live, maxIdleSources)
		}
		if i == 199 {
			settled = heap() // the idle set has been full for a while
		}
	}
	if n := len(sd.programs.bySource); n != live+maxIdleSources {
		t.Fatalf("store holds %d entries, want %d live + %d idle", n, live, maxIdleSources)
	}
	if len(sd.programs.idle) != maxIdleSources {
		t.Fatalf("idle set holds %d, want %d", len(sd.programs.idle), maxIdleSources)
	}
	// Oldest idle goes first: what is left is the last maxIdleSources.
	for i := 1000 - maxIdleSources; i < 1000; i++ {
		if _, ok := sd.programs.bySource[tickerSource(i)]; !ok {
			t.Fatalf("source %d was evicted before older ones", i)
		}
	}
	if end := heap(); end > settled+settled/4+(1<<20) {
		t.Fatalf("heap grew from %d to %d bytes over 800 more distinct sources", settled, end)
	}
	// A pinned entry is never evicted, and an idle one that is used
	// again is the youngest afterwards.
	for i := 0; i < live; i++ {
		if e := sd.programs.bySource[tickerSource(1_000_000+i)]; e == nil || e.refs != 1 {
			t.Fatalf("live source %d: entry %+v", i, e)
		}
	}
	oldest := sd.programs.idle[0]
	if err := sd.AddTask(TaskSpec{Name: "again", Source: oldest.source}); err != nil {
		t.Fatal(err)
	}
	if err := sd.RemoveTask("again"); err != nil {
		t.Fatal(err)
	}
	if got := sd.programs.idle[len(sd.programs.idle)-1]; got != oldest {
		t.Fatal("a reused idle entry did not move to the young end")
	}

	// One source, 1 000 externals values: the machine keeps one
	// analysis, of the value it was last submitted with, and the heap
	// stays flat.
	m := func() *storedMachine { return sd.programs.bySource[knobSource].machines["Knob"] }
	for i := 0; i < 1000; i++ {
		ext := map[string]core.Value{"leaf": "leaf0", "period": int64(1 + i), "weight": 1.0, "subj": core.FilterVal{PortAny: true}}
		if err := sd.AddTask(TaskSpec{Name: "knob", Source: knobSource, Externals: map[string]map[string]core.Value{"Knob": ext}}); err != nil {
			t.Fatal(err)
		}
		if err := sd.RemoveTask("knob"); err != nil {
			t.Fatal(err)
		}
		if got := m().an.externals["period"]; got != int64(1+i) {
			t.Fatalf("after value %d Knob keeps the analysis of period %v", 1+i, got)
		}
		if i == 199 {
			settled = heap()
		}
	}
	if end := heap(); end > settled+settled/4+(1<<20) {
		t.Fatalf("heap grew from %d to %d bytes over 800 more externals values", settled, end)
	}
}

// TestExternalsCopiedAtSubmit: the store keys an analysis on a copy of
// the externals value, not on the caller's map. A caller that writes its
// map after a submit changes neither that analysis nor what a later
// submit of the original value gets; submitting the written map gets an
// analysis of the new value.
func TestExternalsCopiedAtSubmit(t *testing.T) {
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	ext := map[string]core.Value{"leaf": "leaf0", "period": int64(10), "weight": 1.0, "subj": core.FilterVal{PortAny: true}}
	submit := func(name string, ext map[string]core.Value) *analysis {
		t.Helper()
		if err := sd.AddTask(TaskSpec{Name: name, Source: knobSource, Externals: map[string]map[string]core.Value{"Knob": ext}}); err != nil {
			t.Fatal(err)
		}
		return sd.tasks[name].seeds[0].an
	}
	rate := func(a *analysis) float64 { return a.polls[0].Rate.Eval(netmodel.Vector{netmodel.ResPCIe: 1}) }
	first := submit("a", ext)
	if got := rate(first); got != 100 {
		t.Fatalf("period 10 polls at %v/s per PCIe unit, want 100", got)
	}
	ext["period"] = int64(20)
	ext["leaf"] = "leaf1"
	if again := submit("b", map[string]core.Value{"leaf": "leaf0", "period": int64(10), "weight": 1.0, "subj": core.FilterVal{PortAny: true}}); again != first {
		t.Fatal("a submit of the original value did not get its stored analysis")
	}
	if got := rate(first); got != 100 || first.externals["period"] != int64(10) {
		t.Fatalf("the caller's write reached the stored analysis: rate %v, externals %v", got, first.externals)
	}
	written := submit("c", ext)
	if written == first || rate(written) != 50 {
		t.Fatalf("the written map got analysis %p (first %p), rate %v: want a new one at 50/s", written, first, rate(written))
	}
	if got := sd.TaskSeeds("c"); got["c/Knob"] != "leaf1" {
		t.Fatalf("the written map placed Knob as %v, want on leaf1", got)
	}
}

// TestSameExternals: two bindings are one externals value only if a seed
// bound to either cannot tell them apart — core.Equal's int64(1) == 1.0
// and 0 == -0 do not count, in a list neither, and records and maps,
// which core.Equal compares that loosely, never match.
func TestSameExternals(t *testing.T) {
	ext := func(v core.Value) map[string]core.Value { return map[string]core.Value{"x": v} }
	rec := func(v core.Value) core.Value {
		return core.StructVal{L: core.LayoutOf("R", []string{"f"}), V: []core.Value{v}}
	}
	dict := func(v core.Value) core.Value {
		m := core.NewMap()
		m.Set("k", v)
		return m
	}
	for _, tc := range []struct {
		a, b map[string]core.Value
		same bool
	}{
		{nil, map[string]core.Value{}, true},
		{ext(int64(1)), ext(int64(1)), true},
		{ext(int64(1)), ext(1.0), false},
		{ext(0.0), ext(math.Copysign(0, -1)), false},
		{ext(math.NaN()), ext(math.NaN()), true},
		{ext("a"), ext("a"), true},
		{ext(core.List{int64(1)}), ext(core.List{int64(1)}), true},
		{ext(core.List{int64(1)}), ext(core.List{1.0}), false},
		{ext(core.FilterVal{PortAny: true}), ext(core.FilterVal{PortAny: true}), true},
		{ext(rec(int64(1))), ext(rec(1.0)), false},
		{ext(rec(int64(1))), ext(rec(int64(1))), false}, // records are never compared: a miss
		{ext(dict(int64(1))), ext(dict(1.0)), false},
		{ext(int64(1)), map[string]core.Value{"y": int64(1)}, false},
		{ext(int64(1)), map[string]core.Value{"x": int64(1), "y": int64(1)}, false},
	} {
		if got := sameExternals(tc.a, tc.b); got != tc.same {
			t.Errorf("sameExternals(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.same)
		}
	}
}

// TestResubmitAnalysesNothing: a submit that binds a value its machine
// was analysed against before takes the stored analysis — the same
// utilities, poll demands, LP fragments and prepared program — and runs
// no utility or poll analysis. The catalogue is submitted, retired and
// submitted again with equal externals in new maps.
func TestResubmitAnalysesNothing(t *testing.T) {
	fab, _ := churnFabric(t)
	sd := New(fab, Options{})
	hits, misses := 0, 0
	testAnalysis = func(hit bool) bool {
		if hit {
			hits++
		} else {
			misses++
		}
		return false
	}
	defer func() { testAnalysis = nil }()
	specs := catalogueSpecs()
	firstAn := map[string]*analysis{}
	for _, spec := range specs {
		if err := sd.AddTask(spec); err != nil {
			t.Fatal(err)
		}
		for _, s := range sd.tasks[spec.Name].seeds {
			firstAn[s.id] = s.an
		}
	}
	machines := misses
	if hits != 0 || machines < len(specs) {
		t.Fatalf("first submit of the catalogue: %d hits, %d misses", hits, misses)
	}
	for _, spec := range specs {
		if err := sd.RemoveTask(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range specs {
		spec.Externals = catalogueExternals(spec.Name)
		if err := sd.AddTask(spec); err != nil {
			t.Fatal(err)
		}
		for _, s := range sd.tasks[spec.Name].seeds {
			if s.an != firstAn[s.id] {
				t.Fatalf("%s: resubmit got a new analysis", s.id)
			}
		}
	}
	if misses != machines || hits != machines {
		t.Fatalf("resubmit of the catalogue: %d analyses run, %d taken from the store; want 0 and %d", misses-machines, hits, machines)
	}
}

// catalogueExternals is a catalogue task's default externals in new
// maps.
func catalogueExternals(name string) map[string]map[string]core.Value {
	d, err := tasks.ByName(name)
	if err != nil {
		panic(err)
	}
	out := map[string]map[string]core.Value{}
	for m, ext := range d.DefaultExternals {
		out[m] = maps.Clone(ext)
	}
	return out
}

// TestFailedSourceNotStored: a source that does not parse, or one of
// whose machines does not compile, leaves nothing behind — and the
// errors read as they always did.
func TestFailedSourceNotStored(t *testing.T) {
	fab, _ := testSetup(t, 1, 1, 1)
	sd := New(fab, Options{})
	noState := strings.Replace(tickerSource(1), "count = count + 1;", "transit nowhere;", 1)
	twoMachines := tickerSource(2) + noState
	for _, tc := range []struct {
		what, source string
		machines     []string
		wantErr      string
	}{
		{"parse error", "machine {", nil, "seeder: task bad: "},
		{"sema error", noState, nil, "seeder: task bad: almanac: machine Tick1: line 8: state s: transit to undeclared state nowhere"},
		{"unknown machine", tickerSource(3), []string{"Nope"}, "seeder: task bad: almanac: machine Nope: line 0: machine Nope not found"},
		{"second machine bad", twoMachines, nil, "seeder: task bad: almanac: machine Tick1: "},
	} {
		err := sd.AddTask(TaskSpec{Name: "bad", Source: tc.source, Machines: tc.machines})
		if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want prefix %q", tc.what, err, tc.wantErr)
		}
		if n := len(sd.programs.bySource) + len(sd.programs.idle); n != 0 {
			t.Fatalf("%s: the store kept %d entries of a failed source", tc.what, n)
		}
		if sd.HasTask("bad") || len(sd.Placements()) != 0 {
			t.Fatalf("%s: the failed task left state behind", tc.what)
		}
	}
	// A task that compiles but does not fit is a good source: it stays.
	greedy := strings.Replace(tickerSource(4), "res.vCPU >= 0.01", "res.vCPU >= 1000", 1)
	if err := sd.AddTask(TaskSpec{Name: "greedy", Source: greedy}); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("err = %v", err)
	}
	if e := sd.programs.bySource[greedy]; e == nil || e.refs != 0 || len(sd.programs.idle) != 1 {
		t.Fatalf("dropped-by-placement source: entry %+v, idle %d; want it idle with no reference", e, len(sd.programs.idle))
	}
}

// TestStoreProgramCameThroughXML: what the store hands to soils is the
// machine as decoded from its XML wire form, for the whole catalogue,
// and the codec loses nothing the lowering sees.
func TestStoreProgramCameThroughXML(t *testing.T) {
	ps := newProgramStore()
	disasm := func(cm *almanac.CompiledMachine) string {
		lp, err := almanac.Lower(cm, core.BuiltinNames())
		if err != nil {
			t.Fatal(err)
		}
		return lp.Disassemble()
	}
	machines := 0
	for _, d := range tasks.All() {
		e, err := ps.acquire(d.Source)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		names := d.Machines
		if names == nil {
			names = e.names
		}
		for _, mn := range names {
			m, err := e.machine(mn)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, mn, err)
			}
			machines++
			if m.prog.Machine() == m.cm {
				t.Fatalf("%s/%s: the stored program was lowered from sema's machine, not from the decoded XML", d.Name, mn)
			}
			xmlData, err := almanac.EncodeXML(m.cm)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := almanac.DecodeXML(xmlData)
			if err != nil {
				t.Fatal(err)
			}
			stored := disasm(m.prog.Machine())
			if viaXML := disasm(wire); stored != viaXML {
				t.Fatalf("%s/%s: stored program differs from Lower(DecodeXML(EncodeXML(cm)))", d.Name, mn)
			}
			if direct := disasm(m.cm); stored != direct {
				t.Fatalf("%s/%s: the XML hop changed the lowered program:\n--- direct\n%s\n--- stored\n%s", d.Name, mn, direct, stored)
			}
			if again, _ := almanac.EncodeXML(m.prog.Machine()); string(again) != string(xmlData) {
				t.Fatalf("%s/%s: the decoded machine re-encodes differently", d.Name, mn)
			}
			if m2, _ := e.machine(mn); m2 != m {
				t.Fatalf("%s/%s: second lookup built the machine again", d.Name, mn)
			}
		}
		ps.release(e)
	}
	if machines < 18 {
		t.Fatalf("only %d catalogue machines checked", machines)
	}
}

// TestMigrationUsesStoredProgram: a seed that moves is restored from the
// program its task was deployed with — not from a recompilation, and not
// (as before the store) from the seeder's own sema output, past the XML
// hop. The same holds for the fresh redeploy after a switch failure.
func TestMigrationUsesStoredProgram(t *testing.T) {
	const movable = `
machine Mover {
  place any;
  long counter;
  time tick = 10;
  state s {
    util (res) { if (res.vCPU >= 2) then { return res.vCPU * 10; } }
    when (tick as x) do { counter = counter + 1; }
  }
}`
	fab, loop := testSetup(t, 1, 3, 1)
	sd := New(fab, Options{MigrationCost: 0.1})
	if err := sd.AddTask(TaskSpec{Name: "mover", Source: movable}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond)
	want := sd.tasks["mover"].seeds[0].m.prog
	from, _ := sd.SeedSwitch("mover/Mover")
	if got := runningProgram(sd.Soil(from), "mover/Mover"); got != want {
		t.Fatalf("the deployed seed runs %p, the store holds %p", got, want)
	}
	before, _ := sd.Soil(from).SeedVar("mover/Mover", "counter")

	// Squeeze it out, as TestReoptimizeMigratesOnPressure does: a
	// migration, so a snapshot restore on the target.
	pinned := fmt.Sprintf(`
machine Pinner {
  place all "%s";
  time tick = 100;
  state s {
    util (res) { if (res.vCPU >= 3) then { return 1000; } }
    when (tick as x) do { }
  }
}`, fab.Topology().Switch(from).Name)
	if err := sd.AddTask(TaskSpec{Name: "pinner", Source: pinned}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond)
	to, ok := sd.SeedSwitch("mover/Mover")
	if !ok || to == from || sd.Migrations() != 1 {
		t.Fatalf("seed did not migrate (on %d, was %d, %d migrations)", to, from, sd.Migrations())
	}
	if got := runningProgram(sd.Soil(to), "mover/Mover"); got != want {
		t.Fatalf("the restored seed runs %p, the store holds %p", got, want)
	}
	if after, _ := sd.Soil(to).SeedVar("mover/Mover", "counter"); after.(int64) < before.(int64) {
		t.Fatalf("counter = %v after migration, was %v: state lost", after, before)
	}

	if _, err := sd.FailSwitch(to); err != nil {
		t.Fatal(err)
	}
	back, ok := sd.SeedSwitch("mover/Mover")
	if !ok || back == to {
		t.Fatalf("mover not redeployed after its switch failed (on %d, ok %v)", back, ok)
	}
	if got := runningProgram(sd.Soil(back), "mover/Mover"); got != want {
		t.Fatalf("the seed redeployed after FailSwitch runs %p, the store holds %p", got, want)
	}
	if len(sd.programs.bySource) != 2 {
		t.Fatalf("store holds %d sources after two tasks and a failover, want 2", len(sd.programs.bySource))
	}
}

// runningProgram digs the *core.Program out of a deployed seed's runner.
// Neither soil nor core exports a way to ask (nothing but this test
// wants to), so it reads the unexported fields soil.Soil.seeds →
// seedRuntime.seed → the register VM's lp by reflection; a rename there
// makes it panic, not pass.
func runningProgram(s *soil.Soil, id string) *core.Program {
	rt := reflect.ValueOf(s).Elem().FieldByName("seeds").MapIndex(reflect.ValueOf(id))
	vm := rt.Elem().FieldByName("seed").Elem() // the *rvmSeed in the Runner interface
	return (*core.Program)(vm.Elem().FieldByName("lp").UnsafePointer())
}

// TestFilterExternalAndConstInitReachTheSoil: the soil wires triggers
// against the same constant environment the seeder analysed with, so a
// poll subject bound through an external filter, and an interval taken
// from a constant machine variable, deploy and poll. Both were placed
// by the seeder and then refused by every soil.
func TestFilterExternalAndConstInitReachTheSoil(t *testing.T) {
	for _, tc := range []struct {
		name, source string
		externals    map[string]core.Value
	}{
		{"external filter subject", `
machine W {
  place all;
  external filter subj;
  poll p = Poll { .ival = 10, .what = subj };
  long n;
  state s {
    util (res) { return 1; }
    when (p as stats) do { n = n + 1; }
  }
}`, map[string]core.Value{"subj": core.FilterVal{PortAny: true}}},
		{"interval from a constant variable", `
machine W {
  place all;
  long period = 10;
  poll p = Poll { .ival = period, .what = port ANY };
  long n;
  state s {
    util (res) { return 1; }
    when (p as stats) do { n = n + 1; }
  }
}`, nil},
	} {
		fab, loop := testSetup(t, 1, 2, 1)
		sd := New(fab, Options{})
		err := sd.AddTask(TaskSpec{Name: "w", Source: tc.source, Externals: map[string]map[string]core.Value{"W": tc.externals}})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		loop.RunFor(105 * time.Millisecond)
		for _, sw := range fab.Topology().Switches() {
			s := sd.Soil(sw.ID)
			ids := s.SeedIDs()
			if len(ids) != 1 {
				t.Fatalf("%s: switch %s runs %v, want one seed", tc.name, sw.Name, ids)
			}
			// ival = 10 ms: ten completions in 105 ms.
			if n, _ := s.SeedVar(ids[0], "n"); n != int64(10) {
				t.Fatalf("%s: switch %s: poll handler ran %v times in 105 ms at a 10 ms interval", tc.name, sw.Name, n)
			}
		}
	}
}

// TestFailedDeployRollsBack: when one seed of a new task cannot deploy
// (capacity taken behind the seeder's back), AddTask fails and nothing
// of the task stays: no placement, no running seed, no store reference.
// Before, the seeds that did deploy ran on as orphans — in Placements,
// holding soil capacity, and out of every RemoveTask's reach.
func TestFailedDeployRollsBack(t *testing.T) {
	pinnedTo := func(machine string, switches ...string) string {
		return fmt.Sprintf(`
machine %s {
  place all "%s";
  time tick = 100;
  state s {
    util (res) { if (res.vCPU >= 1 and res.RAM >= 64) then { return 1; } }
    when (tick as x) do { }
  }
}`, machine, strings.Join(switches, `", "`))
	}
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "resident", Source: pinnedTo("R", "spine0")}); err != nil {
		t.Fatal(err)
	}

	// The squatter: a seed deployed straight onto leaf1's soil, taking
	// everything there is.
	leaf1 := sd.Soil(sd.byName["leaf1"])
	e, err := newProgramStore().acquire(tickerSource(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.machine("Tick1")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := soil.Prepare(m.prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	squatter := soil.SeedRef{Task: "squat", Machine: "Tick1", Switch: "leaf1"}
	if err := leaf1.DeployCompiled(squatter, squatter.ID(), prep, leaf1.Available()); err != nil {
		t.Fatal(err)
	}

	state := func() (map[string]placement.Assignment, map[string][]string) {
		seeds := map[string][]string{}
		for _, sw := range fab.Topology().Switches() {
			seeds[sw.Name] = sd.Soil(sw.ID).SeedIDs()
		}
		return sd.Placements(), seeds
	}
	plBefore, seedsBefore := state()

	spec := TaskSpec{Name: "newcomer", Source: pinnedTo("N", "leaf0", "leaf1")}
	err = sd.AddTask(spec)
	if err == nil || !strings.HasPrefix(err.Error(), "seeder: task newcomer: soil leaf1: insufficient resources for newcomer/N/i1") {
		t.Fatalf("AddTask = %v, want the deploy failure on leaf1", err)
	}
	if sd.HasTask("newcomer") {
		t.Fatal("failed task still known")
	}
	plAfter, seedsAfter := state()
	if !reflect.DeepEqual(plBefore, plAfter) {
		t.Fatalf("placements changed across a failed AddTask:\nbefore %v\nafter  %v", plBefore, plAfter)
	}
	if !reflect.DeepEqual(seedsBefore, seedsAfter) {
		t.Fatalf("a failed AddTask left seeds running:\nbefore %v\nafter  %v", seedsBefore, seedsAfter)
	}
	leaf0 := sd.byName["leaf0"]
	if avail, capacity := sd.Soil(leaf0).Available(), sd.fab.Topology().Switch(leaf0).Capacity; !avail.AtLeast(capacity, 1e-9) {
		t.Fatalf("leaf0 has %v of %v available after the seed was rolled back", avail, capacity)
	}
	if ent := sd.programs.bySource[spec.Source]; ent == nil || ent.refs != 0 {
		t.Fatalf("store reference not released: %+v", ent)
	}
	if !sd.touched[sd.byName["leaf0"]] {
		t.Fatal("the switch a seed was rolled back from is not marked for the next warm replan")
	}

	// With the squatter gone the same task deploys.
	if err := leaf1.Remove(squatter.ID()); err != nil {
		t.Fatal(err)
	}
	if err := sd.AddTask(spec); err != nil {
		t.Fatalf("second AddTask: %v", err)
	}
	if got := sd.TaskSeeds("newcomer"); len(got) != 2 {
		t.Fatalf("newcomer deployed as %v, want one seed on each leaf", got)
	}
}

// BenchmarkResubmit is what an operator cycling a catalogue task pays
// once the store is warm: resolution, placement and deployment of one
// task's seeds on the control-churn fabric (2 spines, 4 leaves).
func BenchmarkResubmit(b *testing.B) {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 2, Leaves: 4, HostsPerLeaf: 8})
	if err != nil {
		b.Fatal(err)
	}
	sd := New(fabric.New(topo, engine.NewSerial(), fabric.Options{}), Options{})
	d, err := tasks.ByName("hh")
	if err != nil {
		b.Fatal(err)
	}
	spec := TaskSpec{Name: d.Name, Source: d.Source, Machines: d.Machines, Externals: d.DefaultExternals}
	cycle := func() {
		if err := sd.AddTask(spec); err != nil {
			b.Fatal(err)
		}
		if err := sd.RemoveTask(spec.Name); err != nil {
			b.Fatal(err)
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// soakCapacity is the fleet soak's per-switch model (fleet.SoakConfig's
// default, and control-churn's): wide enough for the whole catalogue on
// every switch at once.
func soakCapacity() netmodel.Resources {
	return netmodel.Resources{
		netmodel.ResVCPU: 128,
		netmodel.ResRAM:  1 << 17,
		netmodel.ResTCAM: 1 << 14,
		netmodel.ResPCIe: 512,
		netmodel.ResPoll: 1e6,
	}
}

// catalogueSpecs is the Tab. I catalogue as submit specs, sorted by name.
func catalogueSpecs() []TaskSpec {
	var specs []TaskSpec
	for _, d := range tasks.All() {
		specs = append(specs, TaskSpec{Name: d.Name, Source: d.Source, Machines: d.Machines, Externals: d.DefaultExternals})
	}
	return specs
}

// churnFabric is the control-churn fabric: 2 spines, 4 leaves, soak
// capacities.
func churnFabric(tb testing.TB) (*fabric.Fabric, engine.Scheduler) {
	tb.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 4, HostsPerLeaf: 8,
		LeafCapacity: soakCapacity(), SpineCapacity: soakCapacity(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	loop := engine.NewSerial()
	return fabric.New(topo, loop, fabric.Options{}), loop
}

// loadedSeeder is the churn fabric with every catalogue task live, and a
// cycle that retires and resubmits the next task in turn: a warm replan
// with 17 other tasks' seeds in the problem.
func loadedSeeder(tb testing.TB) (sd *Seeder, cycle func()) {
	tb.Helper()
	fab, _ := churnFabric(tb)
	sd = New(fab, Options{})
	specs := catalogueSpecs()
	for _, spec := range specs {
		if err := sd.AddTask(spec); err != nil {
			tb.Fatal(err)
		}
	}
	next := 0
	return sd, func() {
		spec := specs[next%len(specs)]
		next++
		if err := sd.RemoveTask(spec.Name); err != nil {
			tb.Fatal(err)
		}
		if err := sd.AddTask(spec); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkResubmitLoaded is BenchmarkResubmit with the whole catalogue
// live: one op retires and resubmits one task while the other 17 stay
// placed, so the warm replan carries every live seed. What placement
// costs per submit shows here, not on the empty fabric.
func BenchmarkResubmitLoaded(b *testing.B) {
	_, cycle := loadedSeeder(b)
	for i := 0; i < len(catalogueSpecs()); i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkChurnRound is the seeder's share of bench/e2e's control-churn
// workload, without its RPC and audit layers: the 2×4×8 fabric at soak
// capacities, the catalogue split between two owners, and per round each
// owner resubmits the tasks it retired the round before and retires 5 of
// its own at random (rand seed 11). An op is one round; allocs/submit is
// a round's objects, its retires included, per submit.
func BenchmarkChurnRound(b *testing.B) {
	fab, _ := churnFabric(b)
	sd := New(fab, Options{})
	type owner struct{ owned, missing []TaskSpec }
	owners := []*owner{{}, {}}
	for i, spec := range catalogueSpecs() {
		o := owners[i%len(owners)]
		o.owned = append(o.owned, spec)
		o.missing = append(o.missing, spec)
	}
	rng := rand.New(rand.NewSource(11))
	round := func() (submits int) {
		for _, o := range owners {
			for _, spec := range o.missing {
				if err := sd.AddTask(spec); err != nil {
					b.Fatal(err)
				}
				submits++
			}
			o.missing = o.missing[:0]
			for _, i := range rng.Perm(len(o.owned))[:5] {
				if err := sd.RemoveTask(o.owned[i].Name); err != nil {
					b.Fatal(err)
				}
				o.missing = append(o.missing, o.owned[i])
			}
		}
		return submits
	}
	for i := 0; i < 4; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submits += round()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(submits), "allocs/submit")
}

// TestLoadedResubmitAllocBound pins BenchmarkResubmitLoaded's objects per
// cycle. Re-baking every live seed's step-3 LP fragments on every replan,
// and cloning a capacity map per update, cost 5 135; fragments carried on
// the seed and capacity updated in place brought it to ≈ 2 300. Solves
// in pooled scratch, with minimal allocations computed once per machine,
// allocation-free LP assembly and outcome maps only for changed answers,
// brought it to ≈ 450 (bound 570). Each machine's analysis, LP fragments
// and prepared program kept with the machine in the program store,
// and the soil's books kept in place, bring it to ≈ 222 (bound 280).
// Under the race detector sync.Pool drops a quarter of what it is
// handed, so a solve rebuilds its scratch now and then (≈ 290–320).
func TestLoadedResubmitAllocBound(t *testing.T) {
	_, cycle := loadedSeeder(t)
	n := len(catalogueSpecs())
	for i := 0; i < n; i++ {
		cycle()
	}
	// One full lap of the catalogue per run, so every task's cost counts
	// once in the mean.
	got := testing.AllocsPerRun(2, func() {
		for i := 0; i < n; i++ {
			cycle()
		}
	}) / float64(n)
	t.Logf("loaded retire+resubmit: %.0f allocs per cycle", got)
	bound := 280
	if raceEnabled {
		bound = 1000
	}
	if got > float64(bound) {
		t.Fatalf("loaded retire+resubmit = %.0f allocs per cycle, want <= %d", got, bound)
	}
}
