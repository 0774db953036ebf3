package seeder

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/placement"
	"farm/internal/poly"
)

// flipSource is a task whose seeds change state on every tick, each state
// with its own utility, so successive replans see a seed's Utility (and
// therefore its baked fragments) switch.
const flipSource = `
machine Flip {
  place all;
  time tick = 7;
  state a {
    util (res) { if (res.vCPU >= 1) then { return res.vCPU; } }
    when (tick as x) do { transit b; }
  }
  state b {
    util (res) { if (res.vCPU >= 2 and res.RAM >= 64) then { return 2 * res.vCPU; } }
    when (tick as x) do { transit a; }
  }
}`

// TestBakedFragmentsParity: on a seeded churn of the catalogue (plus a
// state-flipping task, then a switch failure and a full re-optimization),
// every placement input the seeder builds solves to the same result with
// the fragments it carries on its seeds as with fragments baked fresh for
// that solve.
func TestBakedFragmentsParity(t *testing.T) {
	fab, loop := churnFabric(t)
	sd := New(fab, Options{})
	solves, flipped := 0, 0
	sd.beforeSolve = func(in *placement.Input) {
		solves++
		fresh := *in
		fresh.Seeds = slices.Clone(in.Seeds)
		for i := range fresh.Seeds {
			if fresh.Seeds[i].Baked == nil {
				t.Fatalf("solve %d: seed %s carries no fragments", solves, fresh.Seeds[i].ID)
			}
			fresh.Seeds[i].Baked = nil
		}
		carried, err := placement.Heuristic(in)
		if err != nil {
			t.Fatal(err)
		}
		baked, err := placement.Heuristic(&fresh)
		if err != nil {
			t.Fatal(err)
		}
		if carried.Digest() != baked.Digest() || !reflect.DeepEqual(carried.Placed, baked.Placed) ||
			!reflect.DeepEqual(carried.DroppedTasks, baked.DroppedTasks) || carried.Migrations != baked.Migrations {
			t.Fatalf("solve %d: carried fragments place %s, fresh ones %s", solves, carried.Digest(), baked.Digest())
		}
		if ft := sd.tasks["flip"]; ft != nil {
			for _, spec := range in.Seeds {
				if spec.Task == "flip" && &spec.Utility[0] != &ft.seeds[0].utilByState["a"][0] {
					flipped++
				}
			}
		}
	}

	specs := append(catalogueSpecs(), TaskSpec{Name: "flip", Source: flipSource})
	rng := rand.New(rand.NewSource(11))
	leaf := sd.byName["leaf2"]
	const ops = 240
	submits := 0
	for op := 0; op < ops; op++ {
		if op == 2*ops/3 {
			// leaf2 stays down for the rest of the churn.
			if _, err := sd.FailSwitch(leaf); err != nil {
				t.Fatal(err)
			}
			if err := sd.Reoptimize(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		spec := specs[rng.Intn(len(specs))]
		if sd.HasTask(spec.Name) {
			if err := sd.RemoveTask(spec.Name); err != nil {
				t.Fatal(err)
			}
		} else {
			submits++
			if err := sd.AddTask(spec); err != nil && len(sd.failed) == 0 {
				// With leaf2 down, tasks pinned to it cannot place: expected.
				t.Fatal(err)
			}
		}
		loop.RunFor(3 * time.Millisecond)
	}
	if solves < submits+1 {
		t.Fatalf("%d solves for %d submits and a re-optimization", solves, submits)
	}
	if flipped == 0 {
		t.Fatal("no solve saw a flip seed outside its initial state: the utility switch went untested")
	}
	t.Logf("%d solves, %d with a flip seed in its second state", solves, flipped)
}

// TestBakedFragmentsLifetime: fragments live on their seeds and nowhere
// else. Over 1 000 retire+resubmit cycles of one task with the other 17
// live, the fragments reachable from the seeder are exactly one per live
// seed (no engine time passes, so every seed is in its initial state),
// and the heap does not grow. A package-level memo keyed by seed would
// pass the count and fail the heap: each resubmit resolves fresh utility
// slices, so its entries never hit again.
func TestBakedFragmentsLifetime(t *testing.T) {
	if raceEnabled {
		t.Skip("a heap-trend check over 1 000 loaded replans: ~40 s under the race detector, and nothing concurrent to check")
	}
	sd, _ := loadedSeeder(t)
	spec := catalogueSpecs()[0]
	cycle := func() {
		if err := sd.RemoveTask(spec.Name); err != nil {
			t.Fatal(err)
		}
		if err := sd.AddTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	check := func(at int) {
		seeds, baked := 0, 0
		for _, tk := range sd.tasks {
			for _, s := range tk.seeds {
				seeds++
				baked += len(s.baked)
			}
		}
		if baked != seeds {
			t.Fatalf("after %d cycles: %d baked values reachable for %d live seeds", at, baked, seeds)
		}
	}
	var settled uint64
	for i := 1; i <= 1000; i++ {
		cycle()
		if i%100 == 0 {
			check(i)
		}
		if i == 200 {
			settled = heap()
		}
	}
	if end := heap(); end > settled+settled/4+(1<<20) {
		t.Fatalf("heap in use grew from %d to %d bytes over 800 more resubmits", settled, end)
	}
}

// capacityShiftSource is a task of two machines whose seeds (one per leaf,
// three per machine) share their machine's baked rows, and whose case
// constraints span two resources, so a minimal allocation is a small LP
// over the largest capacities the fabric offers: which resource is cheap
// depends on that capacity vector. A third, movable machine can sit on
// the spine.
const capacityShiftSource = `
machine Left {
  place all "leaf0", "leaf1", "leaf2";
  time tick = 5;
  state s {
    util (res) { if (res.vCPU + res.PCIe >= 2) then { return min(res.vCPU * 3, res.PCIe * 5); } }
    when (tick as x) do { }
  }
}
machine Right {
  place all "leaf0", "leaf1", "leaf2";
  time tick = 5;
  state s {
    util (res) { if (res.vCPU + 2 * res.PCIe >= 3 and res.RAM >= 16) then { return res.vCPU * 2 + res.PCIe; } }
    when (tick as x) do { }
  }
}
machine Roam {
  place any;
  time tick = 5;
  state s {
    util (res) { if (res.vCPU + res.PCIe >= 1) then { return res.vCPU + res.PCIe * 2; } }
    when (tick as x) do { }
  }
}`

// TestMinimalAllocsFollowCapacity: a machine's minimal allocations are
// computed once and published on its shared rows, keyed by the largest
// capacity vector of the solve. On a fabric whose one spine has far more
// PCIe than the leaves, failing and recovering the spine changes that
// vector twice; every solve of a churn around it, with the rows the seeds
// carry, places exactly what rows baked fresh for that solve place —
// with step 3, and without it, where the minimal allocations are the
// answer itself.
func TestMinimalAllocsFollowCapacity(t *testing.T) {
	// With the spine up PCIe is the plentiful resource (512 against 128
	// vCPU), with it down vCPU is (128 against 16): the minimal
	// allocations of Left, Right and Roam change resource.
	leafCap := soakCapacity()
	leafCap[netmodel.ResPCIe] = 16
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 1, Leaves: 3, HostsPerLeaf: 2, LeafCapacity: leafCap, SpineCapacity: soakCapacity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	sd := New(fabric.New(topo, loop, fabric.Options{}), Options{})

	vectors := map[string]bool{}
	solves, shared := 0, 0
	sd.beforeSolve = func(in *placement.Input) {
		solves++
		maxCap := netmodel.Resources{}
		for _, sw := range in.Switches {
			for r, v := range sw.Capacity {
				maxCap[r] = max(maxCap[r], v)
			}
		}
		vectors[maxCap.String()] = true
		byMachine := map[string]*poly.Case{}
		for _, spec := range in.Seeds {
			if first, ok := byMachine[spec.Machine]; ok && first == &spec.Utility[0] {
				shared++
			}
			byMachine[spec.Machine] = &spec.Utility[0]
		}
		for _, skip := range []bool{false, true} {
			carried := *in
			carried.SkipRedistribution = skip
			fresh := carried
			fresh.Seeds = slices.Clone(in.Seeds)
			for i := range fresh.Seeds {
				fresh.Seeds[i].Baked = nil
			}
			a, err := placement.Heuristic(&carried)
			if err != nil {
				t.Fatal(err)
			}
			b, err := placement.Heuristic(&fresh)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest() != b.Digest() || !reflect.DeepEqual(a.Placed, b.Placed) {
				t.Fatalf("solve %d (skip step 3: %v) at %v: carried rows place %s, fresh ones %s", solves, skip, maxCap, a.Digest(), b.Digest())
			}
		}
	}

	spine := sd.byName["spine0"]
	other := TaskSpec{Name: "flip", Source: flipSource}
	shift := TaskSpec{Name: "shift", Source: capacityShiftSource}
	step := func(what string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		loop.RunFor(3 * time.Millisecond)
	}
	for round := 0; round < 3; round++ {
		step("submit shift", func() error { return sd.AddTask(shift) })
		step("submit flip", func() error { return sd.AddTask(other) })
		switch round {
		case 0:
			step("fail spine", func() error { _, err := sd.FailSwitch(spine); return err })
		case 1:
			step("recover spine", func() error { return sd.RecoverSwitch(spine) })
		}
		for _, name := range []string{shift.Name, other.Name} {
			if sd.HasTask(name) { // a spine failure drops flip: it is placed on every switch
				step("retire "+name, func() error { return sd.RemoveTask(name) })
			}
		}
	}
	if len(vectors) < 2 {
		t.Fatalf("the churn saw %d capacity vector(s); the spine's failure did not change it", len(vectors))
	}
	if shared == 0 {
		t.Fatal("no two seeds of a machine shared rows")
	}
	t.Logf("%d solves over %d capacity vectors, %d seeds on shared rows", solves, len(vectors), shared)
}
