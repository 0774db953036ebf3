package soil

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

const hhSource = `
function setHitterRules(list hs, action act) {
  long i = 0;
  while (i < list_len(hs)) {
    addTCAMRule(port list_get(hs, i), act, 10);
    i = i + 1;
  }
}
machine HH {
  place all;
  poll pollStats = Poll {
    .ival = 10 / res().PCIe, .what = port ANY
  };
  external long threshold;
  action hitterAction = setQoS();
  list hitters;

  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester)
  do { threshold = newTh; }
}
`

func testEnv(t *testing.T) (*fabric.Fabric, engine.Scheduler) {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	return fabric.New(topo, loop, fabric.Options{}), loop
}

func compileHH(t *testing.T) *almanac.CompiledMachine {
	t.Helper()
	prog, err := almanac.Parse(hhSource)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "HH")
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// mustPrepare lowers and links a machine and binds it to externals:
// what DeployCompiled takes.
func mustPrepare(t testing.TB, cm *almanac.CompiledMachine, externals map[string]core.Value) *Prepared {
	t.Helper()
	prog, err := core.Compile(cm)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(prog, externals)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func leafID(t *testing.T, fab *fabric.Fabric, name string) netmodel.SwitchID {
	t.Helper()
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == name {
			return sw.ID
		}
	}
	t.Fatalf("switch %s not found", name)
	return 0
}

// inject passes p through sw from port 1 to port 2, its key built for
// this packet as the fabric builds it once per flow.
func inject(sw *dataplane.Switch, p dataplane.Packet) {
	k := dataplane.KeyOf(&p)
	sw.InjectKey(&p, &k, 1, 2)
}

func hhAlloc() netmodel.Vector {
	return netmodel.Vector{
		netmodel.ResVCPU: 1, netmodel.ResRAM: 128,
		netmodel.ResPCIe: 1, netmodel.ResTCAM: 8, netmodel.ResPoll: 200,
	}
}

func deployHH(t *testing.T, s *Soil, task string, threshold int64) SeedRef {
	t.Helper()
	cm := compileHH(t)
	xmlData, err := almanac.EncodeXML(cm)
	if err != nil {
		t.Fatal(err)
	}
	ref := SeedRef{Task: task, Machine: "HH", Switch: s.Name()}
	if err := s.Deploy(ref, xmlData, map[string]core.Value{"threshold": threshold}, hhAlloc()); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestDeployAndDetect(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	var harvested []core.Value
	s.SetSendFunc(func(from SeedRef, to core.SendDest, v core.Value) {
		if to.Harvester {
			harvested = append(harvested, v)
		}
	})
	ref := deployHH(t, s, "hh", 1_000_000)

	if s.NumSeeds() != 1 {
		t.Fatalf("seeds = %d", s.NumSeeds())
	}
	if st, _ := s.SeedState(ref.ID()); st != "observe" {
		t.Fatalf("state = %s", st)
	}

	// Drive heavy traffic into port 1 and run: ival = 10/PCIe = 10ms.
	hot := fab.Switch(leaf)
	for i := 0; i < 100; i++ {
		loop.RunFor(time.Millisecond)
		_ = hot.CreditPort(1, 0, 0, 100, 2_000_000)
	}
	if len(harvested) == 0 {
		t.Fatal("HH never reported to harvester")
	}
	hit, ok := harvested[0].(core.List)
	if !ok || len(hit) != 1 || hit[0] != int64(1) {
		t.Fatalf("hitters = %s", core.FormatValue(harvested[0]))
	}
	// Local reaction installed a rule.
	if _, ok := hot.TCAM().GetRule(dataplane.Filter{InPort: 1}); !ok {
		t.Fatal("no TCAM rule installed for the heavy port")
	}
}

func TestResourceAdmission(t *testing.T) {
	fab, _ := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	cm := compileHH(t)
	huge := netmodel.Vector{netmodel.ResVCPU: 999}
	err := s.DeployCompiled(SeedRef{Task: "t", Machine: "HH", Switch: s.Name()}, "t/HH", mustPrepare(t, cm, map[string]core.Value{"threshold": int64(1)}), huge)
	if err == nil || !strings.Contains(err.Error(), "insufficient resources") {
		t.Fatalf("err = %v", err)
	}
	if s.NumSeeds() != 0 || s.used[netmodel.ResVCPU] != 0 {
		t.Fatal("failed deployment leaked resources")
	}
}

func TestDuplicateDeployRejected(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	deployHH(t, s, "hh", 1)
	cm := compileHH(t)
	err := s.DeployCompiled(SeedRef{Task: "hh", Machine: "HH", Switch: s.Name()}, "hh/HH", mustPrepare(t, cm, map[string]core.Value{"threshold": int64(1)}), hhAlloc())
	if err == nil || !strings.Contains(err.Error(), "already deployed") {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveReleasesResources(t *testing.T) {
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := deployHH(t, s, "hh", 1)
	loop.RunFor(50 * time.Millisecond)
	polls := s.PollsIssued()
	if polls == 0 {
		t.Fatal("no polls issued before removal")
	}
	if err := s.Remove(ref.ID()); err != nil {
		t.Fatal(err)
	}
	if s.NumSeeds() != 0 {
		t.Fatal("seed not removed")
	}
	if s.used[netmodel.ResVCPU] != 0 || s.used[netmodel.ResRAM] != 0 {
		t.Fatalf("resources leaked: %v", s.used)
	}
	loop.RunFor(50 * time.Millisecond)
	if s.PollsIssued() != polls {
		t.Fatal("polling continued after removal")
	}
	if err := s.Remove(ref.ID()); err == nil {
		t.Fatal("double remove should error")
	}
}

// TestRemoveReleasesCompiledMachine: a program is held by whoever
// compiled it and by the runners deployed from it, so once its only seed
// is removed nothing in soil or core may keep it or its compiled machine
// reachable.
func TestRemoveReleasesCompiledMachine(t *testing.T) {
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := SeedRef{Task: "hh", Machine: "HH", Switch: s.Name()}
	collected := make(chan struct{})
	func() {
		cm := compileHH(t)
		runtime.SetFinalizer(cm, func(*almanac.CompiledMachine) { close(collected) })
		if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, map[string]core.Value{"threshold": int64(1)}), hhAlloc()); err != nil {
			t.Fatal(err)
		}
	}()
	loop.RunFor(50 * time.Millisecond)
	if err := s.Remove(ref.ID()); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(50 * time.Millisecond) // drain the cancelled poll events
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("compiled machine still reachable after its only seed was removed")
	}
}

// TestDeployRejectsUnlowerableMachine: seed XML is decoded without a
// sema pass, so a corrupted operator reaches lowering; the deployment
// must fail with the lowering error, not run some other way.
func TestDeployRejectsUnlowerableMachine(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	xmlData, err := almanac.EncodeXML(compileHH(t))
	if err != nil {
		t.Fatal(err)
	}
	const plus = `kind="binary" s="+"`
	if strings.Count(string(xmlData), plus) != 1 {
		t.Fatalf("expected exactly one + in the HH machine:\n%s", xmlData)
	}
	bad := strings.Replace(string(xmlData), plus, `kind="binary" s="%%"`, 1)
	ref := SeedRef{Task: "hh", Machine: "HH", Switch: s.Name()}
	err = s.Deploy(ref, []byte(bad), map[string]core.Value{"threshold": int64(1)}, hhAlloc())
	if err == nil || !strings.Contains(err.Error(), `"%%"`) {
		t.Fatalf("Deploy = %v, want a lowering error naming the operator %q", err, "%%")
	}
	if s.NumSeeds() != 0 {
		t.Fatal("rejected seed was deployed")
	}
}

// TestDeployRejectsStatelessMachine: sema rejects a machine without
// states, but seed XML does not go through all of sema (DecodeXML
// resolves its names only); such a seed must be a deploy error, not a
// soil that panics when it starts the seed in state -1.
func TestDeployRejectsStatelessMachine(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := SeedRef{Task: "t", Machine: "M", Switch: s.Name()}
	err := s.Deploy(ref, []byte(`<machine name="M"></machine>`), nil, hhAlloc())
	if err == nil || !strings.Contains(err.Error(), "machine declares no states") {
		t.Fatalf("Deploy = %v, want the no-states error", err)
	}
	if s.NumSeeds() != 0 {
		t.Fatal("rejected seed was deployed")
	}
}

// TestDeployRejectsUnknownInitialState: an initial attribute naming no
// declared state must be a deploy error (the reference interpreter
// fails every handler with "in unknown state"), not a seed that
// silently starts in the first state.
func TestDeployRejectsUnknownInitialState(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	xmlData, err := almanac.EncodeXML(compileHH(t))
	if err != nil {
		t.Fatal(err)
	}
	const initial = `initial="observe"`
	if strings.Count(string(xmlData), initial) != 1 {
		t.Fatalf("expected one %s in the HH machine:\n%s", initial, xmlData)
	}
	bad := strings.Replace(string(xmlData), initial, `initial="nowhere"`, 1)
	ref := SeedRef{Task: "hh", Machine: "HH", Switch: s.Name()}
	err = s.Deploy(ref, []byte(bad), map[string]core.Value{"threshold": int64(1)}, hhAlloc())
	if err == nil || !strings.Contains(err.Error(), "unknown initial state nowhere") {
		t.Fatalf("Deploy = %v, want the unknown-initial-state error", err)
	}
	if s.NumSeeds() != 0 {
		t.Fatal("rejected seed was deployed")
	}
}

func TestPollingAggregation(t *testing.T) {
	// Two tasks polling the same subject: with aggregation the soil
	// issues one poll per interval; without, two.
	run := func(aggregate bool) uint64 {
		fab, loop := testEnv(t)
		s := New(fab, leafID(t, fab, "leaf0"), Options{ExecModel: Threads, Aggregation: aggregate})
		s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
		deployHH(t, s, "taskA", 1_000_000_000)
		deployHH(t, s, "taskB", 1_000_000_000)
		loop.RunFor(100 * time.Millisecond)
		return s.PollsIssued()
	}
	with := run(true)
	without := run(false)
	if with == 0 || without == 0 {
		t.Fatalf("polls: with=%d without=%d", with, without)
	}
	if without < with*2-2 {
		t.Fatalf("aggregation saved nothing: with=%d without=%d", with, without)
	}
	// Both must deliver to both seeds.
}

func TestAggregationDeliversPerSeedDeltas(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	var reports []core.Value
	s.SetSendFunc(func(from SeedRef, to core.SendDest, v core.Value) {
		reports = append(reports, v)
	})
	// Task A with low threshold, task B with absurd threshold.
	deployHH(t, s, "low", 1000)
	deployHH(t, s, "high", 1_000_000_000)
	hot := fab.Switch(leaf)
	for i := 0; i < 50; i++ {
		loop.RunFor(time.Millisecond)
		_ = hot.CreditPort(2, 0, 0, 10, 100_000)
	}
	if len(reports) == 0 {
		t.Fatal("low-threshold seed did not detect")
	}
	// The high-threshold seed must never have fired.
	if st, _ := s.SeedState("high/HH"); st != "observe" {
		t.Fatalf("high seed state = %s", st)
	}
}

func TestHarvesterMessageDelivery(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := deployHH(t, s, "hh", 1000)
	s.DeliverToMachine(ref.Task, ref.Machine, core.MsgSource{Harvester: true}, int64(42))
	if v, _ := s.SeedVar(ref.ID(), "threshold"); v != int64(42) {
		t.Fatalf("threshold = %v", v)
	}
	// Another task's message does not reach the seed.
	s.DeliverToMachine("nope", ref.Machine, core.MsgSource{Harvester: true}, int64(1))
	if v, _ := s.SeedVar(ref.ID(), "threshold"); v != int64(42) {
		t.Fatalf("threshold = %v after a message to another task", v)
	}
}

func TestDeliverToMachineBroadcast(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	deployHH(t, s, "a", 1000)
	deployHH(t, s, "b", 1000)
	s.DeliverToMachine("", "HH", core.MsgSource{Harvester: true}, int64(7))
	for _, id := range []string{"a/HH", "b/HH"} {
		if v, _ := s.SeedVar(id, "threshold"); v != int64(7) {
			t.Fatalf("%s threshold = %v", id, v)
		}
	}
}

func TestReallocRetunesPolling(t *testing.T) {
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := deployHH(t, s, "hh", 1_000_000_000)
	loop.RunFor(100 * time.Millisecond)
	before := s.PollsIssued() // ival = 10ms -> ~10 polls/100ms
	// Double the PCIe allocation: ival = 10/2 = 5 ms -> ~2x the polls.
	alloc := hhAlloc()
	alloc[netmodel.ResPCIe] = 2
	if err := s.Realloc(ref.ID(), alloc); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond)
	delta := s.PollsIssued() - before
	if delta < before*3/2 {
		t.Fatalf("polls before=%d after-delta=%d: realloc did not speed polling", before, delta)
	}
}

func TestReallocOverCapacityRejected(t *testing.T) {
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := deployHH(t, s, "hh", 1)
	huge := netmodel.Vector{netmodel.ResVCPU: 999}
	if err := s.Realloc(ref.ID(), huge); err == nil {
		t.Fatal("over-capacity realloc accepted")
	}
}

// TestStoredResKeepsItsGrant: a res() value a seed keeps is the grant it
// read, after a Realloc too, while res() reads the new grant.
func TestStoredResKeepsItsGrant(t *testing.T) {
	const src = `
machine Keep {
  place all;
  list saved;
  float before; float after;
  state s {
    when (enter) do { saved = [res()]; before = res().vCPU; }
    when (realloc) do { after = res().vCPU; }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "Keep")
	if err != nil {
		t.Fatal(err)
	}
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := SeedRef{Task: "k", Machine: "Keep", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), hhAlloc()); err != nil {
		t.Fatal(err)
	}
	grown := hhAlloc()
	grown[netmodel.ResVCPU] = 2
	if err := s.Realloc(ref.ID(), grown); err != nil {
		t.Fatal(err)
	}
	before, _ := s.SeedVar(ref.ID(), "before")
	after, _ := s.SeedVar(ref.ID(), "after")
	if before != 1.0 || after != 2.0 {
		t.Fatalf("res().vCPU read %v at deploy and %v after the realloc, want 1 and 2", before, after)
	}
	saved, _ := s.SeedVar(ref.ID(), "saved")
	if l, ok := saved.(core.List); !ok || len(l) != 1 || *l[0].(core.ResourcesVal) != hhAlloc() {
		t.Fatalf("the kept res() value is %v after the realloc, want the deploy grant %v", saved, hhAlloc())
	}
}

func TestMigrationSnapshotRestore(t *testing.T) {
	fab, loop := testEnv(t)
	src := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	dst := New(fab, leafID(t, fab, "leaf1"), DefaultOptions())
	src.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
	dst.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})

	ref := deployHH(t, src, "hh", 1000)
	// Mutate state via the harvester.
	src.DeliverToMachine(ref.Task, ref.Machine, core.MsgSource{Harvester: true}, int64(4242))

	snap, err := src.SnapshotSeed(ref.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Remove(ref.ID()); err != nil {
		t.Fatal(err)
	}
	ref2 := SeedRef{Task: "hh", Machine: "HH", Switch: dst.Name()}
	if err := dst.RestoreSeed(ref2, ref2.ID(), mustPrepare(t, compileHH(t), map[string]core.Value{"threshold": int64(1000)}), hhAlloc(), snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := dst.SeedVar(ref2.ID(), "threshold"); v != int64(4242) {
		t.Fatalf("threshold = %v after migration", v)
	}
	// The migrated seed keeps working on the new switch.
	loop.RunFor(50 * time.Millisecond)
	if dst.PollsIssued() == 0 {
		t.Fatal("migrated seed does not poll on the new switch")
	}
}

// TestTCAMBudgetEnforced pins a seed's rule operations: each acts when
// it is called, and the driver charges the leaf's bus 96 B for an
// install or a removal (present or not) and 48 B for a read. An install
// refused for the seed's budget charges nothing; re-installing a filter
// the seed already owns replaces it, also at budget.
func TestTCAMBudgetEnforced(t *testing.T) {
	src := `
machine Rules {
  place all;
  long installed;
  bool removed;
  state s {
    when (recv long p from harvester) do {
      if (p > 0) then {
        addTCAMRule(port p, drop(), 1);
        installed = installed + 1;
      } else {
        if (p < 0) then {
          long q = 0 - p;
          removed = removeTCAMRule(port q);
        } else {
          getTCAMRule(port 1);
        }
      }
    }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "Rules")
	if err != nil {
		t.Fatal(err)
	}
	fab, _ := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	var logged []string
	s.SetLogf(func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) })
	alloc := hhAlloc()
	alloc[netmodel.ResTCAM] = 2
	ref := SeedRef{Task: "r", Machine: "Rules", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), alloc); err != nil {
		t.Fatal(err)
	}
	bus := fab.Driver(leaf).Bus()
	last := bus.Snapshot()
	// op delivers p to the seed and checks what the bus was charged.
	op := func(p int64, requests, bytes uint64) {
		t.Helper()
		s.DeliverToMachine(ref.Task, ref.Machine, core.MsgSource{Harvester: true}, p)
		now := bus.Snapshot()
		if dr, db := now.Requests-last.Requests, now.Bytes-last.Bytes; dr != requests || db != bytes {
			t.Fatalf("message %d: bus +%d requests, +%d B; want +%d, +%d B (logged %q)", p, dr, db, requests, bytes, logged)
		}
		last = now
	}
	op(1, 1, 96)
	op(2, 1, 96)
	// The third exceeds the budget: the handler errors, logged by the
	// soil, and nothing crosses the bus.
	op(3, 0, 0)
	if len(logged) != 1 || !strings.Contains(logged[0], "TCAM allocation") {
		t.Fatalf("logged %q, want one TCAM budget error", logged)
	}
	if v, _ := s.SeedVar(ref.ID(), "installed"); v != int64(2) {
		t.Fatalf("installed = %v", v)
	}
	// Re-installing an owned filter at budget is a replace.
	op(1, 1, 96)
	if v, _ := s.SeedVar(ref.ID(), "installed"); v != int64(3) || len(logged) != 1 {
		t.Fatalf("installed = %v, logged %q after a replace at budget", v, logged)
	}
	for _, rm := range []struct {
		p    int64
		want bool
	}{{-2, true}, {-3, false}} {
		op(rm.p, 1, 96)
		if v, _ := s.SeedVar(ref.ID(), "removed"); v != rm.want {
			t.Fatalf("removeTCAMRule(port %d) = %v, want %v", -rm.p, v, rm.want)
		}
	}
	op(0, 1, 48)
	if len(logged) != 1 {
		t.Fatalf("logged %q", logged)
	}
}

// fullDriver is the leaf's driver with a switch whose table refuses
// every write while full is set, as a table other seeds have filled.
type fullDriver struct {
	dataplane.Driver
	full bool
}

func (d *fullDriver) AddRule(r dataplane.Rule) error {
	if d.full {
		return dataplane.ErrTCAMFull
	}
	return d.Driver.AddRule(r)
}

// TestTCAMSwitchFull: an install the switch refuses fails the handler,
// logged by the soil, and is not charged to the seed's TCAM budget, so
// once the table has room the seed installs its whole budget.
func TestTCAMSwitchFull(t *testing.T) {
	prog, err := almanac.Parse(`
machine Rules {
  place all;
  long installed;
  state s {
    when (recv long p from harvester) do {
      addTCAMRule(port p, drop(), 1);
      installed = installed + 1;
    }
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "Rules")
	if err != nil {
		t.Fatal(err)
	}
	fab, _ := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	drv := &fullDriver{Driver: s.driver, full: true}
	s.driver = drv
	var logged []string
	s.SetLogf(func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) })
	alloc := hhAlloc()
	alloc[netmodel.ResTCAM] = 2
	ref := SeedRef{Task: "r", Machine: "Rules", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), alloc); err != nil {
		t.Fatal(err)
	}
	deliver := func(p int64) {
		s.DeliverToMachine(ref.Task, ref.Machine, core.MsgSource{Harvester: true}, p)
	}
	deliver(1)
	if len(logged) != 1 || !strings.Contains(logged[0], dataplane.ErrTCAMFull.Error()) {
		t.Fatalf("logged %q, want one TCAM full error", logged)
	}
	if owned := s.seeds[ref.ID()].rulesOwned; owned != 0 {
		t.Fatalf("a refused install counts %d against the budget", owned)
	}
	drv.full = false
	for p := int64(1); p <= 3; p++ {
		deliver(p)
	}
	if v, _ := s.SeedVar(ref.ID(), "installed"); v != int64(2) {
		t.Fatalf("installed = %v once the table has room, want the budget of 2", v)
	}
	if len(logged) != 2 || !strings.Contains(logged[1], "TCAM allocation") {
		t.Fatalf("logged %q, want the third install refused for the budget", logged)
	}
}

func TestProbeTrigger(t *testing.T) {
	src := `
machine Probe {
  place all;
  probe pkts = Probe { .ival = 5, .what = dstPort 80 };
  long seen;
  state s {
    when (pkts as p) do { seen = seen + 1; }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "Probe")
	if err != nil {
		t.Fatal(err)
	}
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	ref := SeedRef{Task: "p", Machine: "Probe", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), hhAlloc()); err != nil {
		t.Fatal(err)
	}
	// 100 matching packets in 20 ms; probe interval 5 ms lower-bounds
	// delivery: expect ~4-5 deliveries, not 100.
	sw := fab.Switch(leaf)
	for i := 0; i < 100; i++ {
		inject(sw, dataplane.Packet{DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100})
		loop.RunFor(200 * time.Microsecond)
	}
	loop.RunFor(10 * time.Millisecond)
	v, _ := s.SeedVar(ref.ID(), "seen")
	seen := v.(int64)
	if seen == 0 {
		t.Fatal("probe never delivered")
	}
	if seen > 10 {
		t.Fatalf("probe rate limit not applied: %d deliveries", seen)
	}
	// Non-matching packets are not sampled.
	before := seen
	inject(sw, dataplane.Packet{DstPort: 443, Proto: dataplane.ProtoTCP, Size: 100})
	loop.RunFor(10 * time.Millisecond)
	v, _ = s.SeedVar(ref.ID(), "seen")
	if v.(int64) != before {
		t.Fatal("non-matching packet delivered")
	}
}

func TestTimeTrigger(t *testing.T) {
	src := `
machine Timer {
  place all;
  time tick = 10;
  long fires;
  state s {
    when (tick as now) do { fires = fires + 1; }
  }
}
`
	prog, _ := almanac.Parse(src)
	cm, err := almanac.CompileMachine(prog, "Timer")
	if err != nil {
		t.Fatal(err)
	}
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := SeedRef{Task: "t", Machine: "Timer", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), hhAlloc()); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(105 * time.Millisecond)
	if v, _ := s.SeedVar(ref.ID(), "fires"); v != int64(10) {
		t.Fatalf("fires = %v, want 10", v)
	}
}

func TestDynamicPollRateChange(t *testing.T) {
	src := `
machine Adaptive {
  place all;
  poll p = Poll { .ival = 50, .what = port ANY };
  long polls;
  state s {
    when (p as stats) do {
      polls = polls + 1;
      if (polls == 1) then { p.ival = 5; }
    }
  }
}
`
	prog, _ := almanac.Parse(src)
	cm, err := almanac.CompileMachine(prog, "Adaptive")
	if err != nil {
		t.Fatal(err)
	}
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := SeedRef{Task: "a", Machine: "Adaptive", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), hhAlloc()); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(300 * time.Millisecond)
	v, _ := s.SeedVar(ref.ID(), "polls")
	// 50ms until first poll, then 5ms period: ~(300-50)/5 = ~50 polls.
	if v.(int64) < 30 {
		t.Fatalf("polls = %v: dynamic rate change not applied", v)
	}
}

// TestHugeIntervalNeverPolls: an interval past the largest Duration
// (here 1e20 ms) saturates to the end of time. The plain conversion was out of range there
// (negative on amd64, 0 on 386) and fell to the 1 ms floor, so a seed
// that asked for the slowest poll got the fastest, as a declared
// interval and as a retune alike.
func TestHugeIntervalNeverPolls(t *testing.T) {
	src := `
machine Slow {
  place all;
  poll p = Poll { .ival = 10000000000.0 * 10000000000.0, .what = port ANY };
  poll q = Poll { .ival = 5, .what = port 1 };
  time tick = 5;
  long polls;
  long qpolls;
  long ticks;
  state s {
    when (p as stats) do { polls = polls + 1; }
    when (q as stats) do { qpolls = qpolls + 1; q.ival = 10000000000.0 * 10000000000.0; }
    when (tick as now) do { ticks = ticks + 1; tick.ival = 10000000000.0 * 10000000000.0; }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "Slow")
	if err != nil {
		t.Fatal(err)
	}
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	ref := SeedRef{Task: "s", Machine: "Slow", Switch: s.Name()}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), hhAlloc()); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(300 * time.Millisecond)
	for name, want := range map[string]int64{"polls": 0, "qpolls": 1, "ticks": 1} {
		if v, _ := s.SeedVar(ref.ID(), name); v != want {
			t.Errorf("%s = %v after 300ms, want %d", name, v, want)
		}
	}
	if n := s.PollsIssued(); n != 1 {
		t.Errorf("PollsIssued() = %d, want 1", n)
	}
}

func TestCPUAccountingProcessVsThreads(t *testing.T) {
	run := func(model ExecModel) float64 {
		fab, loop := testEnv(t)
		s := New(fab, leafID(t, fab, "leaf0"), Options{ExecModel: model, Aggregation: true})
		s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
		for i := 0; i < 4; i++ {
			deployHH(t, s, "t"+string(rune('a'+i)), 1_000_000_000)
		}
		snap := fab.Meters.Snapshot()
		loop.RunFor(time.Second)
		return fab.Meters.Since(snap).Load(s.SwitchID())
	}
	threads := run(Threads)
	procs := run(Processes)
	if threads <= 0 || procs <= 0 {
		t.Fatalf("loads: threads=%g procs=%g", threads, procs)
	}
	if procs <= threads {
		t.Fatalf("process model (%g) should cost more CPU than threads (%g)", procs, threads)
	}
}

// A seed whose function recurses without end fails its handler on every
// trigger — logged, not fatal to the process — while the seed next to it
// on the same soil keeps counting.
func TestRunawayRecursionFailsTheHandlerOnly(t *testing.T) {
	src := `
function forever(long n) { return forever(n + 1); }
machine Runaway {
  place all;
  time tick = 10;
  long fires; long done;
  state s {
    when (tick as now) do { fires = fires + 1; done = forever(0); }
  }
}
machine Timer {
  place all;
  time tick = 10;
  long fires;
  state s {
    when (tick as now) do { fires = fires + 1; }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	var logged []string
	s.SetLogf(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
	refs := map[string]SeedRef{}
	for _, name := range []string{"Runaway", "Timer"} {
		cm, err := almanac.CompileMachine(prog, name)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = SeedRef{Task: "t", Machine: name, Switch: s.Name()}
		if err := s.DeployCompiled(refs[name], refs[name].ID(), mustPrepare(t, cm, nil), hhAlloc()); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunFor(105 * time.Millisecond)
	if v, _ := s.SeedVar(refs["Timer"].ID(), "fires"); v != int64(10) {
		t.Fatalf("neighbour fired %v times, want 10", v)
	}
	if v, _ := s.SeedVar(refs["Runaway"].ID(), "fires"); v != int64(10) {
		t.Fatalf("runaway seed's handler ran %v times, want 10", v)
	}
	if v, _ := s.SeedVar(refs["Runaway"].ID(), "done"); v != int64(0) {
		t.Fatalf("done = %v: the runaway call returned", v)
	}
	if len(logged) != 10 || !strings.Contains(logged[0], "call of forever nests deeper than") {
		t.Fatalf("logged %d errors, want 10 call-depth errors: %q", len(logged), logged)
	}
}

// A seed asking for a sketch or a distinct counter past the size bound
// fails the handler that asked, with an error naming the dimensions: its
// deployment when the enter handler asks, each tick when a trigger's
// does. The soil and its other seeds keep running; unbounded, the sizes
// below panic in makeslice and take down the process hosting the soil.
func TestOversizedSketchFailsTheHandlerOnly(t *testing.T) {
	src := `
machine Greedy {
  place all;
  list sk;
  state s {
    when (enter) do { sk = sketch_new(10000000, 10000000); }
  }
}
machine Counter {
  place all;
  time tick = 10;
  long fires; list dc;
  state s {
    when (tick as now) do { fires = fires + 1; dc = distinct_new(1000000000000000); }
  }
}
machine Timer {
  place all;
  time tick = 10;
  long fires;
  state s {
    when (tick as now) do { fires = fires + 1; }
  }
}
`
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	var logged []string
	s.SetLogf(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
	refs := map[string]SeedRef{}
	deploy := func(name string) error {
		cm, err := almanac.CompileMachine(prog, name)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = SeedRef{Task: "t", Machine: name, Switch: s.Name()}
		return s.DeployCompiled(refs[name], refs[name].ID(), mustPrepare(t, cm, nil), hhAlloc())
	}
	for _, name := range []string{"Timer", "Counter"} {
		if err := deploy(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := deploy("Greedy"); err == nil || !strings.Contains(err.Error(), "sketch_new(1e+07, 1e+07)") {
		t.Fatalf("deploying a seed whose enter handler asks for 1e14 counters: %v, want the sketch_new size error", err)
	}
	if s.NumSeeds() != 2 {
		t.Fatalf("%d seeds on the soil after the failed deployment, want 2", s.NumSeeds())
	}
	loop.RunFor(105 * time.Millisecond)
	for _, name := range []string{"Timer", "Counter"} {
		if v, _ := s.SeedVar(refs[name].ID(), "fires"); v != int64(10) {
			t.Fatalf("%s fired %v times, want 10", name, v)
		}
	}
	if len(logged) != 10 || !strings.Contains(logged[0], "distinct_new(1e+15)") {
		t.Fatalf("logged %d errors, want 10 distinct_new size errors: %q", len(logged), logged)
	}
}

// Name returns the switch name this soil runs on.
func (s *Soil) Name() string { return s.name }

// Deploy instantiates a machine from its XML wire form (§V-A-d) on this
// switch with the given external bindings and resource allocation:
// decode, compile and Prepare in front of DeployCompiled, the path the
// seeder's program store takes once per source.
func (s *Soil) Deploy(ref SeedRef, xmlData []byte, externals map[string]core.Value, alloc netmodel.Vector) error {
	cm, err := almanac.DecodeXML(xmlData)
	if err != nil {
		return fmt.Errorf("soil %s: %w", s.name, err)
	}
	prog, err := core.Compile(cm)
	if err != nil {
		return fmt.Errorf("soil %s: %w", s.name, err)
	}
	p, err := Prepare(prog, externals)
	if err != nil {
		return fmt.Errorf("soil %s: %w", s.name, err)
	}
	return s.DeployCompiled(ref, ref.ID(), p, alloc)
}
