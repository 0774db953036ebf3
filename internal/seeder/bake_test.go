package seeder

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"farm/internal/placement"
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
// that solve. Run under -race it also checks that the step-3 workers
// share carried fragments across solves read-only.
func TestBakedFragmentsParity(t *testing.T) {
	fab, loop := churnFabric(t)
	sd := New(fab, Options{PlacementParallel: 4})
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
	sd, _ := loadedSeeder(t, -1)
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
