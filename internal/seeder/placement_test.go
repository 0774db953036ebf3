package seeder

import (
	"testing"
	"time"

	"farm/internal/netmodel"
)

func TestPlaceSenderRange(t *testing.T) {
	src := `
machine EdgeWatch {
  place all sender (srcIP "10.0.0.0/16" and dstIP "10.1.0.0/16") range == 0;
  time tick = 100;
  state s {
    util (res) { return 1; }
    when (tick as x) do { }
  }
}
`
	fab, _ := testSetup(t, 2, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "ew", Source: src}); err != nil {
		t.Fatal(err)
	}
	// Sender anchor at distance 0 = the source-side leaf (leaf0) on
	// every matching path; identical sets deduplicate to one seed.
	pls := sd.Placements()
	if len(pls) != 1 {
		t.Fatalf("placements = %d, want 1", len(pls))
	}
	for _, a := range pls {
		if fab.Topology().Switch(a.Switch).Name != "leaf0" {
			t.Fatalf("seed on %s, want leaf0", fab.Topology().Switch(a.Switch).Name)
		}
	}
}

func TestPlaceAnyReceiverRange(t *testing.T) {
	src := `
machine NearDst {
  place any receiver (srcIP "10.0.0.0/16" and dstIP "10.1.0.0/16") range <= 1;
  time tick = 100;
  state s {
    util (res) { return 1; }
    when (tick as x) do { }
  }
}
`
	fab, _ := testSetup(t, 2, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "nd", Source: src}); err != nil {
		t.Fatal(err)
	}
	pls := sd.Placements()
	if len(pls) != 1 {
		t.Fatalf("placements = %d, want 1 (any = one seed)", len(pls))
	}
	// Candidates are {spines, leaf1}; the optimizer picked one of them.
	for _, a := range pls {
		name := fab.Topology().Switch(a.Switch).Name
		if name == "leaf0" {
			t.Fatalf("seed on the sender leaf, outside the candidate set")
		}
	}
}

func TestPlaceNumericSwitchID(t *testing.T) {
	src := `
machine Pinned {
  place all 0;
  time tick = 100;
  state s { util (res) { return 1; } when (tick as x) do { } }
}
`
	fab, _ := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	if err := sd.AddTask(TaskSpec{Name: "p0", Source: src}); err != nil {
		t.Fatal(err)
	}
	for _, a := range sd.Placements() {
		if a.Switch != netmodel.SwitchID(0) {
			t.Fatalf("placed on %d, want 0", a.Switch)
		}
	}
}

func TestRealloc0ExternalsPreserved(t *testing.T) {
	// Reoptimize with no changes must be a no-op: no migrations, same
	// switches, seeds keep state.
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 123, nil)
	before := sd.Placements()
	loop.RunFor(50 * time.Millisecond)
	if err := sd.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	after := sd.Placements()
	for id, a := range after {
		if a.Switch != before[id].Switch {
			t.Fatalf("seed %s moved without cause", id)
		}
	}
	if sd.Migrations() != 0 {
		t.Fatalf("migrations = %d", sd.Migrations())
	}
	// Externals survived the realloc cycle.
	for _, sw := range fab.Topology().Switches() {
		s := sd.Soil(sw.ID)
		for _, id := range s.SeedIDs() {
			if v, _ := s.SeedVar(id, "threshold"); v != int64(123) {
				t.Fatalf("threshold = %v after reoptimize", v)
			}
		}
	}
}

func TestReoptimizeStableUnderSteadyState(t *testing.T) {
	// Repeated full re-optimization must be a no-op while nothing
	// changes: no migrations, no seed changes switch.
	fab, loop := testSetup(t, 1, 2, 1)
	sd := New(fab, Options{})
	addHHTask(t, sd, "hh", 1_000_000, nil)
	before := sd.Placements()

	for i := 0; i < 20; i++ {
		loop.RunFor(50 * time.Millisecond)
		if err := sd.Reoptimize(); err != nil {
			t.Fatalf("reoptimize %d: %v", i, err)
		}
		after := sd.Placements()
		if len(after) != len(before) {
			t.Fatalf("reoptimize %d: %d seeds placed, want %d", i, len(after), len(before))
		}
		for id, a := range after {
			if b, ok := before[id]; !ok || a.Switch != b.Switch {
				t.Fatalf("reoptimize %d moved %s: %d -> %d", i, id, b.Switch, a.Switch)
			}
		}
	}
	if sd.Migrations() != 0 {
		t.Fatalf("migrations = %d under steady state", sd.Migrations())
	}
}
