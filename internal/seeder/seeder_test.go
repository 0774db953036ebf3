package seeder

import (
	"strings"
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/soil"
)

const hhTaskSource = `
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

func testSetup(t *testing.T, spines, leaves, hosts int) (*fabric.Fabric, engine.Scheduler) {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: spines, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	return fabric.New(topo, loop, fabric.Options{}), loop
}

func addHHTask(t *testing.T, sd *Seeder, name string, threshold int64, logic harvest.Logic) {
	t.Helper()
	err := sd.AddTask(TaskSpec{
		Name:      name,
		Source:    hhTaskSource,
		Externals: map[string]map[string]core.Value{"HH": {"threshold": threshold}},
		Harvester: logic,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndHHDetection(t *testing.T) {
	fab, loop := testSetup(t, 2, 4, 2)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1_000_000, nil)

	// place all: one seed per switch (6 switches).
	if got := len(sd.Placements()); got != 6 {
		t.Fatalf("placed %d seeds, want 6", got)
	}
	// Each pinned seed sits on its own switch.
	seen := map[netmodel.SwitchID]bool{}
	for _, a := range sd.Placements() {
		if seen[a.Switch] {
			t.Fatalf("two HH seeds on switch %d", a.Switch)
		}
		seen[a.Switch] = true
	}

	// Drive heavy traffic on leaf0 port 1.
	var leaf netmodel.SwitchID
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == "leaf0" {
			leaf = sw.ID
		}
	}
	for i := 0; i < 100; i++ {
		loop.RunFor(time.Millisecond)
		_ = fab.Switch(leaf).CreditPort(1, 0, 0, 100, 2_000_000)
	}
	loop.RunFor(10 * time.Millisecond)

	h, _ := sd.Harvester("hh")
	hist := h.History()
	if len(hist) == 0 {
		t.Fatal("harvester received no report")
	}
	rec := hist[len(hist)-1]
	if rec.From.Switch != "leaf0" {
		t.Fatalf("report from %s, want leaf0", rec.From.Switch)
	}
	hit, ok := rec.Val.(core.List)
	if !ok || len(hit) != 1 || hit[0] != int64(1) {
		t.Fatalf("hitters = %s", core.FormatValue(rec.Val))
	}
}

// halveOnStart is a harvester that halves the HH threshold as it starts.
type halveOnStart struct{}

func (halveOnStart) OnStart(ctx harvest.Context) { ctx.SendToSeeds("HH", "", int64(500_000)) }

func (halveOnStart) OnSeedMessage(harvest.Context, soil.SeedRef, core.Value) {}

func TestHarvesterReconfiguresSeeds(t *testing.T) {
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1_000_000, halveOnStart{})
	loop.RunFor(10 * time.Millisecond) // let the broadcast land

	// Every seed's threshold must now be 500k.
	for _, sw := range fab.Topology().Switches() {
		s := sd.Soil(sw.ID)
		for _, id := range s.SeedIDs() {
			v, ok := s.SeedVar(id, "threshold")
			if !ok || v != int64(500_000) {
				t.Fatalf("switch %s seed %s threshold = %v", sw.Name, id, v)
			}
		}
	}
}

func TestDetectionLatencyWithinMillisecond(t *testing.T) {
	// Tab. 4: FARM detects an HH within ~1 ms when polling at 1 ms.
	// Deploy with PCIe alloc giving a 1 ms poll interval (ival=10/PCIe
	// with PCIe scaled by the redistribution to the switch max 16 ->
	// 0.625ms; at minimum 1 it is 10ms). We simply measure: detection
	// happens within one poll interval + control latency.
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1_000_000, nil)
	var leaf netmodel.SwitchID
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == "leaf0" {
			leaf = sw.ID
		}
	}
	loop.RunFor(50 * time.Millisecond) // settle
	start := loop.Now()
	// A burst that instantly crosses the threshold.
	_ = fab.Switch(leaf).CreditPort(1, 0, 0, 10000, 50_000_000)
	h, _ := sd.Harvester("hh")
	for loop.Now()-start < 100*time.Millisecond {
		loop.RunFor(time.Millisecond)
		if hist := h.History(); len(hist) > 0 && hist[len(hist)-1].At > start {
			break
		}
	}
	hist := h.History()
	if len(hist) == 0 || hist[len(hist)-1].At <= start {
		t.Fatal("no detection within 100ms")
	}
	rec := hist[len(hist)-1]
	latency := rec.At - start
	// The seed's poll interval is 10/PCIe ms; redistribution grants the
	// full PCIe so the interval is sub-millisecond to a few ms.
	if latency > 15*time.Millisecond {
		t.Fatalf("detection latency %v, want <= 15ms", latency)
	}
}

func TestTwoTasksShareFabric(t *testing.T) {
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh-a", 1_000_000, nil)
	addHHTask(t, sd, "hh-b", 2_000_000, nil)
	if got := len(sd.Placements()); got != 6 {
		t.Fatalf("placements = %d, want 6 (2 tasks x 3 switches)", got)
	}
	// Aggregation: both tasks poll ports:all on each switch; the soil
	// issues polls once per group.
	loop.RunFor(100 * time.Millisecond)
	for _, sw := range fab.Topology().Switches() {
		s := sd.Soil(sw.ID)
		if s.NumSeeds() != 2 {
			t.Fatalf("switch %s has %d seeds", sw.Name, s.NumSeeds())
		}
		if s.PollsDelivered() < s.PollsIssued()*2-2 {
			t.Fatalf("switch %s: polls issued=%d delivered=%d, expected 2x fan-out",
				sw.Name, s.PollsIssued(), s.PollsDelivered())
		}
	}
}

func TestRemoveTask(t *testing.T) {
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1_000_000, nil)
	if err := sd.RemoveTask("hh"); err != nil {
		t.Fatal(err)
	}
	for _, sw := range fab.Topology().Switches() {
		if n := sd.Soil(sw.ID).NumSeeds(); n != 0 {
			t.Fatalf("switch %s still has %d seeds", sw.Name, n)
		}
	}
	if len(sd.Placements()) != 0 {
		t.Fatal("placements not cleared")
	}
	if err := sd.RemoveTask("hh"); err == nil {
		t.Fatal("double remove should error")
	}
	loop.RunFor(10 * time.Millisecond)
}

func TestDuplicateTaskRejected(t *testing.T) {
	fab, _ := testSetup(t, 1, 1, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1, nil)
	err := sd.AddTask(TaskSpec{Name: "hh", Source: hhTaskSource,
		Externals: map[string]map[string]core.Value{"HH": {"threshold": int64(1)}}})
	if err == nil || !strings.Contains(err.Error(), "already deployed") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadSourceRejected(t *testing.T) {
	fab, _ := testSetup(t, 1, 1, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "bad", Source: "machine {"}); err == nil {
		t.Fatal("expected parse error")
	}
	if len(sd.Placements()) != 0 {
		t.Fatal("failed task left placements behind")
	}
}

func TestPlaceAnySingleSeed(t *testing.T) {
	src := `
machine Solo {
  place any;
  time tick = 100;
  long count;
  state s {
    util (res) { if (res.vCPU >= 0.5) then { return res.vCPU; } }
    when (tick as x) do { count = count + 1; }
  }
}
`
	fab, _ := testSetup(t, 1, 3, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "solo", Source: src}); err != nil {
		t.Fatal(err)
	}
	if got := len(sd.Placements()); got != 1 {
		t.Fatalf("placements = %d, want 1 for place any", got)
	}
}

func TestPlaceExplicitSwitches(t *testing.T) {
	src := `
machine Pinned {
  place all "leaf0", "leaf1";
  time tick = 100;
  state s {
    util (res) { return 1; }
    when (tick as x) do { }
  }
}
`
	fab, _ := testSetup(t, 1, 3, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "pin", Source: src}); err != nil {
		t.Fatal(err)
	}
	pls := sd.Placements()
	if len(pls) != 2 {
		t.Fatalf("placements = %d, want 2", len(pls))
	}
	topo := fab.Topology()
	for id, a := range pls {
		name := topo.Switch(a.Switch).Name
		if name != "leaf0" && name != "leaf1" {
			t.Fatalf("seed %s on %s, want leaf0/leaf1", id, name)
		}
	}
}

func TestPlaceRangeOnPaths(t *testing.T) {
	src := `
machine PathWatch {
  place all midpoint (srcIP "10.0.0.0/16" and dstIP "10.1.0.0/16") range == 0;
  time tick = 100;
  state s {
    util (res) { return 1; }
    when (tick as x) do { }
  }
}
`
	fab, _ := testSetup(t, 2, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "pw", Source: src}); err != nil {
		t.Fatal(err)
	}
	// Paths leaf0->leaf1 are leaf-spine-leaf; midpoints are the 2 spines.
	pls := sd.Placements()
	if len(pls) != 2 {
		t.Fatalf("placements = %d, want 2 (one per spine path)", len(pls))
	}
	topo := fab.Topology()
	for id, a := range pls {
		if topo.Switch(a.Switch).Role != netmodel.Spine {
			t.Fatalf("seed %s on %s, want a spine", id, topo.Switch(a.Switch).Name)
		}
	}
}

func TestTaskTooBigRejected(t *testing.T) {
	src := `
machine Greedy {
  place all;
  time tick = 100;
  state s {
    util (res) { if (res.vCPU >= 1000) then { return 1; } }
    when (tick as x) do { }
  }
}
`
	fab, _ := testSetup(t, 1, 1, 1)
	sd := New(fab, Options{})
	err := sd.AddTask(TaskSpec{Name: "greedy", Source: src})
	if err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("err = %v", err)
	}
	if len(sd.Placements()) != 0 {
		t.Fatal("rejected task left placements")
	}
}

func TestReoptimizeMigratesOnPressure(t *testing.T) {
	// Deploy a movable task (place any), then squeeze its switch with a
	// pinned heavyweight task and re-optimize: the movable seed should
	// migrate away, carrying its state.
	movable := `
machine Mover {
  place any;
  long counter;
  time tick = 10;
  state s {
    util (res) { if (res.vCPU >= 2) then { return res.vCPU * 10; } }
    when (tick as x) do { counter = counter + 1; }
  }
}
`
	fab, loop := testSetup(t, 1, 2, 1)
	// Shrink both leaves so Mover (2 vCPU) + Pinner (3 vCPU) exceed one
	// switch's 4 vCPU.
	sd := New(fab, Options{MigrationCost: 0.1})
	if err := sd.AddTask(TaskSpec{Name: "mover", Source: movable}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond) // accumulate counter state
	moverSwitch, _ := sd.SeedSwitch("mover/Mover")
	moverName := fab.Topology().Switch(moverSwitch).Name

	pinned := `
machine Pinner {
  place all "` + moverName + `";
  time tick = 100;
  state s {
    util (res) { if (res.vCPU >= 3) then { return 1000; } }
    when (tick as x) do { }
  }
}
`
	if err := sd.AddTask(TaskSpec{Name: "pinner", Source: pinned}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond) // let migration complete
	newSwitch, ok := sd.SeedSwitch("mover/Mover")
	if !ok {
		t.Fatal("mover vanished")
	}
	if newSwitch == moverSwitch {
		t.Fatalf("mover stayed on %s under pressure", moverName)
	}
	if sd.Migrations() == 0 {
		t.Fatal("no migration recorded")
	}
	// State survived: counter kept its value and keeps growing.
	newSoil := sd.Soil(newSwitch)
	v1, ok := newSoil.SeedVar("mover/Mover", "counter")
	if !ok {
		t.Fatal("mover not running on new switch")
	}
	if v1.(int64) < 5 {
		t.Fatalf("counter = %v after migration, state lost", v1)
	}
	loop.RunFor(100 * time.Millisecond)
	v2, _ := newSoil.SeedVar("mover/Mover", "counter")
	if v2.(int64) <= v1.(int64) {
		t.Fatal("migrated seed stopped executing")
	}
}

func TestSeedToSeedMessaging(t *testing.T) {
	src := `
machine Pinger {
  place all "leaf0";
  time tick = 50;
  state s {
    when (tick as x) do { send 42 to Ponger @ "leaf1"; }
  }
}
machine Ponger {
  place all "leaf1";
  long got;
  state s {
    when (recv long v from Pinger) do { got = v; }
  }
}
`
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "pp", Source: src}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond)
	var leaf1 netmodel.SwitchID
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == "leaf1" {
			leaf1 = sw.ID
		}
	}
	v, ok := sd.Soil(leaf1).SeedVar("pp/Ponger", "got")
	if !ok || v != int64(42) {
		t.Fatalf("ponger got = %v, %v", v, ok)
	}
}

// TestRouteAllocatesNothing: a seed's report to its harvester, a seed's
// message to the seeds of one switch and a harvester's message to one
// switch each ride a pooled control-message record, so once the records
// in flight exist, routing allocates nothing. (The receiving switch hosts
// no seed: what a delivery costs there is the soil's.)
func TestRouteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed, so report sizing's pooled scratch is rebuilt now and then")
	}
	src := `
machine Quiet {
  place all "leaf0";
  time tick = 100000;
  state s {
    when (tick as x) do { }
  }
}
`
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	reports := 0
	logic := harvest.FuncLogic{Message: func(harvest.Context, soil.SeedRef, core.Value) { reports++ }}
	if err := sd.AddTask(TaskSpec{Name: "q", Source: src, Harvester: logic}); err != nil {
		t.Fatal(err)
	}
	from := soil.SeedRef{Task: "q", Machine: "Quiet", Switch: "leaf0"}
	ctx := &harvesterCtx{sd: sd, task: "q"}
	var v core.Value = core.List{int64(300), int64(301)}
	round := func() {
		for i := 0; i < 8; i++ {
			sd.route(from, core.SendDest{Harvester: true}, v)
			sd.route(from, core.SendDest{Machine: "Quiet", Dst: "leaf1"}, v)
			ctx.SendToSeeds("Quiet", "leaf1", v)
		}
		loop.RunFor(10 * time.Millisecond)
	}
	for i := 0; i < 600; i++ { // past the harvester's history limit
		round()
	}
	before := reports
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%.0f allocations per round of 24 control messages, want 0", allocs)
	}
	if got, want := reports-before, 101*8; got != want {
		t.Fatalf("harvester got %d reports, want %d", got, want)
	}
}

func TestSoilSeedRefSwitchNamesSet(t *testing.T) {
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1, nil)
	for id, a := range sd.Placements() {
		_ = id
		s := sd.Soil(a.Switch)
		if s.NumSeeds() == 0 {
			t.Fatalf("switch %d has no seeds despite placement", a.Switch)
		}
	}
}

var _ = soil.DefaultOptions // keep import alignment explicit
