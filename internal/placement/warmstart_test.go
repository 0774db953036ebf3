package placement

import (
	"fmt"
	"slices"
	"testing"

	"farm/internal/netmodel"
)

// digestScenario is the shared mid-size random problem for the
// determinism tests: big enough to exercise LP degeneracy, drops, and
// migrations, small enough for -race.
func digestScenario() *Input {
	return RandomScenario(ScenarioConfig{Switches: 30, Seeds: 200, Tasks: 10, Seed: 3})
}

func solveAt(t *testing.T, in *Input, workers int) *Result {
	t.Helper()
	cp := *in
	cp.Parallel = workers
	res, err := Heuristic(&cp)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := CheckFeasible(&cp, res); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestHeuristicDigestAcrossWorkers pins the step-3 determinism
// contract: the parallel per-switch LP fan-out must reproduce the
// serial solve byte-for-byte at any worker count.
func TestHeuristicDigestAcrossWorkers(t *testing.T) {
	in := digestScenario()
	ref := solveAt(t, in, -1)
	for _, workers := range []int{1, 4, 16} {
		res := solveAt(t, in, workers)
		if got, want := res.Digest(), ref.Digest(); got != want {
			t.Fatalf("workers=%d digest %s, serial %s", workers, got, want)
		}
	}
}

// TestBakedFragmentsMatchPerSolve: fragments baked ahead of the solve and
// carried in SeedSpec.Baked place exactly what fragments baked inside it
// do, serial and on four workers. The seeds of a task share their first
// seed's Utility and Polls, as a machine's seeds do in the seeder, and are
// baked like it, so they share its rows.
func TestBakedFragmentsMatchPerSolve(t *testing.T) {
	in := digestScenario()
	first := map[string]int{}
	for i := range in.Seeds {
		s := &in.Seeds[i]
		if f, ok := first[s.Task]; ok {
			s.Utility, s.Polls = in.Seeds[f].Utility, in.Seeds[f].Polls
		} else {
			first[s.Task] = i
		}
	}
	carried := *in
	carried.Seeds = slices.Clone(in.Seeds)
	for i := range carried.Seeds {
		s := &carried.Seeds[i]
		like := carried.Seeds[first[s.Task]].Baked
		s.Baked = Bake(s, like)
		if like != nil && s.Baked.shape != like.shape {
			t.Fatalf("seed %s does not share its task's rows", s.ID)
		}
	}
	other := &carried.Seeds[1]
	if other.Task == carried.Seeds[0].Task {
		t.Fatal("scenario: the first two seeds are of one task")
	}
	if b := Bake(other, carried.Seeds[0].Baked); b.shape == carried.Seeds[0].Baked.shape {
		t.Fatal("a seed with other Utility and Polls borrowed rows")
	}
	for _, workers := range []int{-1, 4} {
		want := solveAt(t, in, workers).Digest()
		// Twice: a solve leaves the fragments it shares as it found them.
		for run := 0; run < 2; run++ {
			if got := solveAt(t, &carried, workers).Digest(); got != want {
				t.Fatalf("workers=%d run %d: carried fragments digest %s, per-solve %s", workers, run, got, want)
			}
		}
	}
}

// dropTask is a task departure as the seeder replans it: the task's
// seeds leave in.Seeds and in.Current, and the switches they sat on
// become in.Touched (non-nil even when empty, so the warm start arms).
func dropTask(in *Input, task string) {
	dirty := map[netmodel.SwitchID]bool{}
	in.Seeds = slices.DeleteFunc(slices.Clone(in.Seeds), func(s SeedSpec) bool {
		if s.Task != task {
			return false
		}
		if a, ok := in.Current[s.ID]; ok {
			dirty[a.Switch] = true
			delete(in.Current, s.ID)
		}
		return true
	})
	in.Touched = []netmodel.SwitchID{}
	for id := range dirty {
		in.Touched = append(in.Touched, id)
	}
	slices.Sort(in.Touched)
}

// killSwitch fails the switch hosting the most seeds of in.Current (the
// lowest ID on a tie): it leaves in.Switches and every candidate set,
// seeds with no candidate left drop out of the problem, the seeds it
// hosted lose their assignment, and it alone is in.Touched.
func killSwitch(in *Input) {
	load := map[netmodel.SwitchID]int{}
	for _, a := range in.Current {
		load[a.Switch]++
	}
	victim := in.Switches[0].ID
	for _, sw := range in.Switches {
		if load[sw.ID] > load[victim] || (load[sw.ID] == load[victim] && sw.ID < victim) {
			victim = sw.ID
		}
	}
	isVictim := func(id netmodel.SwitchID) bool { return id == victim }
	in.Switches = slices.DeleteFunc(slices.Clone(in.Switches), func(sw SwitchInfo) bool { return isVictim(sw.ID) })
	var kept []SeedSpec
	for _, s := range in.Seeds {
		s.Candidates = slices.DeleteFunc(slices.Clone(s.Candidates), isVictim)
		if len(s.Candidates) == 0 {
			delete(in.Current, s.ID)
			continue
		}
		kept = append(kept, s)
	}
	in.Seeds = kept
	for id, a := range in.Current {
		if isVictim(a.Switch) {
			delete(in.Current, id)
		}
	}
	in.Touched = []netmodel.SwitchID{victim}
}

// TestHeuristicWarmDigestAcrossWorkers is the determinism gate of
// placement through churn, on the 40-switch Fig. 7 scenario: a cold
// start, a task arriving, a task departing, the most loaded switch
// failing, and a settle step where nothing changed. Each step is solved
// serially and at 1, 4 and 16 step-3 workers; every solve must be
// feasible and have the serial digest. Every step after the cold start
// arms the warm start from the serial answer of the step before
// (Current set, Touched non-nil); whether the solve then pins or falls
// back to a full one is the heuristic's call (the kill-switch step falls
// back: too many tasks lost their pins).
func TestHeuristicWarmDigestAcrossWorkers(t *testing.T) {
	const switches, seeds, tasks = 40, 400, 12
	in := RandomScenario(ScenarioConfig{Switches: switches, Seeds: seeds, Tasks: tasks, Seed: 7})
	step := func(name string) bool {
		return t.Run(name, func(t *testing.T) {
			if name != "cold-start" && (len(in.Current) == 0 || in.Touched == nil) {
				t.Fatalf("warm start not armed: %d current assignments, Touched %v", len(in.Current), in.Touched)
			}
			ref := solveAt(t, in, -1)
			for _, workers := range []int{1, 4, 16} {
				if got, want := solveAt(t, in, workers).Digest(), ref.Digest(); got != want {
					t.Fatalf("workers=%d digest %s, serial %s", workers, got, want)
				}
			}
			t.Logf("digest %s: %d placed, %d tasks dropped, utility %.1f, %d migrations",
				ref.Digest(), len(ref.Placed), len(ref.DroppedTasks), ref.Utility, ref.Migrations)
			in.Current = ref.Placed
		})
	}
	if !step("cold-start") {
		return
	}

	arrival := RandomScenario(ScenarioConfig{Switches: switches, Seeds: seeds / tasks, Tasks: 1, Seed: 14})
	for i := range arrival.Seeds {
		arrival.Seeds[i].ID = fmt.Sprintf("tadd/s%d", i)
		arrival.Seeds[i].Task = "taskadd"
	}
	in.Seeds = append(slices.Clone(in.Seeds), arrival.Seeds...)
	in.Touched = []netmodel.SwitchID{}
	if !step("add-task") {
		return
	}

	dropTask(in, in.Seeds[0].Task)
	if !step("remove-task") {
		return
	}

	killSwitch(in)
	if !step("kill-switch") {
		return
	}

	in.Touched = []netmodel.SwitchID{}
	step("settle")
}

// TestHeuristicWarmStartPinsUnchanged: with nothing touched, a warm
// replan reproduces the previous placement exactly — pinned tasks keep
// their assignments and no migrations fire.
func TestHeuristicWarmStartPinsUnchanged(t *testing.T) {
	in := digestScenario()
	first := solveAt(t, in, -1)

	warm := *in
	warm.Current = first.Placed
	warm.Touched = []netmodel.SwitchID{}
	res := solveAt(t, &warm, -1)

	if res.Migrations != 0 {
		t.Fatalf("migrations = %d on an untouched warm replan", res.Migrations)
	}
	for id, a := range first.Placed {
		got, ok := res.Placed[id]
		if !ok {
			t.Fatalf("seed %s lost its placement on an untouched warm replan", id)
		}
		if got.Switch != a.Switch || got.Case != a.Case || !sameRes(got.Alloc, a.Alloc) {
			t.Fatalf("seed %s changed on an untouched warm replan: %+v -> %+v", id, a, got)
		}
	}
}

func sameRes(a, b netmodel.Resources) bool {
	return a.AtLeast(b, 1e-9) && b.AtLeast(a, 1e-9)
}

// TestHeuristicNilTouchedIsClassic: Touched nil must leave the classic
// full solve untouched, even with Current set — existing callers see
// identical behavior.
func TestHeuristicNilTouchedIsClassic(t *testing.T) {
	in := digestScenario()
	first := solveAt(t, in, -1)

	withCur := *in
	withCur.Current = first.Placed
	classic := solveAt(t, &withCur, -1)

	forced := withCur
	forced.Touched = []netmodel.SwitchID{}
	forced.ForceFull = true
	full := solveAt(t, &forced, -1)

	if classic.Digest() != full.Digest() {
		t.Fatalf("nil-Touched solve %s differs from ForceFull solve %s",
			classic.Digest(), full.Digest())
	}
}

// TestHeuristicWarmFallsBackWhenMostlyDirty: when more tasks must
// re-place than DefaultFullThreshold allows, the warm path gives up its
// pins and the result equals the full solve.
func TestHeuristicWarmFallsBackWhenMostlyDirty(t *testing.T) {
	in := digestScenario()
	first := solveAt(t, in, -1)

	kept := *in
	kept.Touched = []netmodel.SwitchID{}
	kept.Current = first.Placed
	if !pinsHeld(t, &kept) {
		t.Fatal("warm solve with every seed kept did not pin")
	}

	warm := kept
	// Keep Current for only a handful of seeds: almost every task is
	// dirty, far past the 25% threshold.
	warm.Current = map[string]Assignment{}
	n := 0
	for _, s := range in.Seeds {
		if a, ok := first.Placed[s.ID]; ok && n < 3 {
			warm.Current[s.ID] = a
			n++
		}
	}
	if pinsHeld(t, &warm) {
		t.Fatal("mostly-dirty warm solve kept its pins; the fallback did not run")
	}
	fellBack := solveAt(t, &warm, -1)

	forced := warm
	forced.ForceFull = true
	full := solveAt(t, &forced, -1)
	if fellBack.Digest() != full.Digest() {
		t.Fatalf("over-threshold warm solve %s differs from full solve %s",
			fellBack.Digest(), full.Digest())
	}
}

// pinsHeld runs the heuristic's warm-start pinning on in and reports
// whether it stayed armed.
func pinsHeld(t *testing.T, in *Input) bool {
	t.Helper()
	st := heurPool.Get().(*heurState)
	defer st.release()
	if err := in.validate(st.swIdx, st.seedIdx); err != nil {
		t.Fatal(err)
	}
	st.reset(in)
	return st.pinCurrent()
}

// TestMigrateRedistributeErrorPropagates is the regression test for
// the formerly swallowed `_ = st.redistribute(...)` calls in the
// migration pass: an LP failure mid-migration must surface as an
// error, not silently leave inconsistent state behind.
func TestMigrateRedistributeErrorPropagates(t *testing.T) {
	in := digestScenario()
	first := solveAt(t, in, -1)
	in.Current = first.Placed
	// Skip step 3 so the only redistribution solves are the migration
	// pass's benefit evaluations — the site that used to discard errors.
	in.SkipRedistribution = true

	testRedistErr = func(netmodel.SwitchID) error {
		return fmt.Errorf("injected LP failure")
	}
	defer func() { testRedistErr = nil }()

	_, err := Heuristic(in)
	if err == nil {
		t.Fatal("Heuristic swallowed an injected redistribution failure in the migration pass")
	}
}
