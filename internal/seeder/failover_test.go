package seeder

import (
	"fmt"
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/soil"
)

func TestFailSwitchRelocatesMovableSeed(t *testing.T) {
	movable := `
machine Mover {
  place any;
  long ticks;
  time tick = 10;
  state s {
    util (res) { if (res.vCPU >= 1) then { return res.vCPU; } }
    when (tick as x) do { ticks = ticks + 1; }
  }
}
`
	fab, loop := testSetup(t, 1, 3, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "mover", Source: movable}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond)
	home, _ := sd.SeedSwitch("mover/Mover")

	dropped, err := sd.FailSwitch(home)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Fatalf("movable task dropped: %v", dropped)
	}
	now, ok := sd.SeedSwitch("mover/Mover")
	if !ok {
		t.Fatal("seed vanished")
	}
	if now == home {
		t.Fatal("seed still on the failed switch")
	}
	if got := sd.FailedSwitches(); len(got) != 1 || got[0] != home {
		t.Fatalf("failed set = %v", got)
	}
	// The redeployed seed starts fresh (state died with the switch) and
	// runs on the new switch.
	loop.RunFor(100 * time.Millisecond)
	v, ok := sd.Soil(now).SeedVar("mover/Mover", "ticks")
	if !ok {
		t.Fatal("seed not running on new switch")
	}
	if v.(int64) < 5 {
		t.Fatalf("redeployed seed not executing: ticks = %v", v)
	}
}

func TestFailSwitchDropsPinnedTask(t *testing.T) {
	pinned := `
machine Pinned {
  place all "leaf0";
  time tick = 100;
  state s { util (res) { return 1; } when (tick as x) do { } }
}
`
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "pin", Source: pinned}); err != nil {
		t.Fatal(err)
	}
	var leaf0 netmodel.SwitchID
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == "leaf0" {
			leaf0 = sw.ID
		}
	}
	dropped, err := sd.FailSwitch(leaf0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "pin" {
		t.Fatalf("dropped = %v, want [pin]", dropped)
	}
	if len(sd.Placements()) != 0 {
		t.Fatal("placements survived the drop")
	}
	if _, ok := sd.Harvester("pin"); ok {
		t.Fatal("harvester survived the drop")
	}
}

func TestFailSwitchPartialTaskSurvivesOnOtherSwitches(t *testing.T) {
	// place all on 3 switches: one dies -> the whole task must go
	// (C1: all seeds or none) since the dead pin cannot re-place.
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1, nil)
	dropped, err := sd.FailSwitch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "hh" {
		t.Fatalf("dropped = %v, want [hh] (pinned seed lost)", dropped)
	}
}

func TestRecoverSwitch(t *testing.T) {
	movable := `
machine Mover {
  place any;
  time tick = 10;
  state s {
    util (res) { if (res.vCPU >= 1) then { return res.vCPU; } }
    when (tick as x) do { }
  }
}
`
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "mover", Source: movable}); err != nil {
		t.Fatal(err)
	}
	home, _ := sd.SeedSwitch("mover/Mover")
	if _, err := sd.FailSwitch(home); err != nil {
		t.Fatal(err)
	}
	if err := sd.RecoverSwitch(home); err != nil {
		t.Fatal(err)
	}
	if len(sd.FailedSwitches()) != 0 {
		t.Fatal("failure set not cleared")
	}
	// Double operations error cleanly.
	if err := sd.RecoverSwitch(home); err == nil {
		t.Fatal("recovering a healthy switch should error")
	}
	if _, err := sd.FailSwitch(netmodel.SwitchID(999)); err == nil {
		t.Fatal("failing an unknown switch should error")
	}
	loop.RunFor(50 * time.Millisecond)
}

// A task dropped by a switch failure and resubmitted while the switch is
// down gets the seed it pins there back when the switch recovers: the
// seeds the switch hosted died with it, so nothing of the first
// submission is left on its soil to refuse the redeployment.
func TestRecoverSwitchAfterResubmit(t *testing.T) {
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1, nil)
	dropped, err := sd.FailSwitch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "hh" {
		t.Fatalf("dropped = %v, want [hh]", dropped)
	}
	if ids := sd.Soil(0).SeedIDs(); len(ids) != 0 {
		t.Fatalf("the failed switch still runs %v", ids)
	}
	addHHTask(t, sd, "hh", 1, nil)
	if got := len(sd.Placements()); got != 2 {
		t.Fatalf("resubmitted during the failure: %d seeds placed, want 2", got)
	}
	if err := sd.RecoverSwitch(0); err != nil {
		t.Fatal(err)
	}
	if got := len(sd.Placements()); got != 3 {
		t.Fatalf("after recovery: %d seeds placed, want 3", got)
	}
	loop.RunFor(50 * time.Millisecond)
	for _, sw := range fab.Topology().Switches() {
		if ids := sd.Soil(sw.ID).SeedIDs(); len(ids) != 1 {
			t.Fatalf("switch %s runs %v, want one HH seed", sw.Name, ids)
		}
	}
}

// A switch failure that squeezes a probe seed off its (healthy) switch
// migrates it live: snapshot, remove, restore elsewhere. A sample of its
// probe that was on the old switch's PCIe bus at that moment completes
// to nobody — the old instance reports nothing — and the restored
// instance reports from its new switch.
func TestFailSwitchMigrationDropsSampleInFlight(t *testing.T) {
	const prober = `
machine Prober {
  place any;
  probe pkts = Probe { .ival = 1, .what = dstPort 80 };
  state s {
    util (res) { if (res.vCPU >= 2) then { return res.vCPU * 10; } }
    when (pkts as p) do { send p.srcPort to harvester; }
  }
}`
	fab, loop := testSetup(t, 1, 3, 1)
	sd := New(fab, Options{MigrationCost: 0.1})
	var reports []string
	logic := harvest.FuncLogic{Message: func(_ harvest.Context, from soil.SeedRef, v core.Value) {
		reports = append(reports, fmt.Sprintf("%s:%v", from.Switch, v))
	}}
	if err := sd.AddTask(TaskSpec{Name: "prober", Source: prober, Harvester: logic}); err != nil {
		t.Fatal(err)
	}
	home, _ := sd.SeedSwitch("prober/Prober")
	// A heavyweight that may run next to the prober's switch or on one
	// other; it starts on the other, which then fails.
	var other netmodel.SwitchID
	for _, sw := range fab.Topology().Switches() {
		if sw.ID != home {
			other = sw.ID
			break
		}
	}
	name := func(id netmodel.SwitchID) string { return fab.Topology().Switch(id).Name }
	squatter := fmt.Sprintf(`
machine Squatter {
  place any "%s", "%s";
  time tick = 100;
  state s {
    util (res) { if (res.vCPU >= 3) then { return 1000; } }
    when (tick as x) do { }
  }
}`, name(home), name(other))
	if err := sd.AddTask(TaskSpec{Name: "squatter", Source: squatter}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(10 * time.Millisecond)
	if at, _ := sd.SeedSwitch("squatter/Squatter"); at != other {
		t.Fatalf("squatter on %s, want %s (no pressure on the prober yet)", name(at), name(other))
	}
	if at, _ := sd.SeedSwitch("prober/Prober"); at != home || sd.Migrations() != 0 {
		t.Fatalf("prober moved to %s before the failure", name(at))
	}

	probe := func(sw netmodel.SwitchID, srcPort uint16) {
		p := dataplane.Packet{SrcPort: srcPort, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100}
		k := dataplane.KeyOf(&p)
		fab.Switch(sw).InjectKey(&p, &k, 1, 0)
	}
	probe(home, 1)
	loop.RunFor(10 * time.Millisecond)
	if want := []string{name(home) + ":1"}; fmt.Sprint(reports) != fmt.Sprint(want) {
		t.Fatalf("reports %v before the failure, want %v", reports, want)
	}

	// The sample needs 100 µs on the bus; the switch next door fails
	// first, the squatter lands on home and the prober is migrated away.
	probe(home, 2)
	loop.RunFor(10 * time.Microsecond)
	if _, err := sd.FailSwitch(other); err != nil {
		t.Fatal(err)
	}
	now, ok := sd.SeedSwitch("prober/Prober")
	if !ok || now == home || now == other || sd.Migrations() != 1 {
		t.Fatalf("prober on %s (ok %v) after %d migrations, want a live migration off %s", name(now), ok, sd.Migrations(), name(home))
	}
	loop.RunFor(10 * time.Millisecond)
	if got := sd.Soil(home).ProbesDelivered(); got != 1 || len(reports) != 1 {
		t.Fatalf("old switch delivered %d probes, harvester has %v: the migrated-away seed got the sample in flight", got, reports)
	}

	probe(now, 3)
	loop.RunFor(10 * time.Millisecond)
	if want := []string{name(home) + ":1", name(now) + ":3"}; fmt.Sprint(reports) != fmt.Sprint(want) {
		t.Fatalf("reports %v, want %v (the restored seed reports from its new switch)", reports, want)
	}
}
