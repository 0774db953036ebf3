package placement

import (
	"fmt"
	"maps"
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

// solveChecked solves in and requires the result to be feasible.
func solveChecked(t *testing.T, in *Input) *Result {
	t.Helper()
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(in, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHeuristicDigestPinned pins the full solve of digestScenario: LP
// rows in first-use order and every tie broken by ID make it the same
// bit for bit on every run.
func TestHeuristicDigestPinned(t *testing.T) {
	if got, want := solveChecked(t, digestScenario()).Digest(), "01ab82714b2d5185"; got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
}

// TestBakedFragmentsMatchPerSolve: fragments baked ahead of the solve and
// carried in SeedSpec.Baked place exactly what fragments baked inside it
// do. The seeds of a task share their first seed's Utility and Polls, as
// a machine's seeds do in the seeder, and so share its one Baked.
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
		if f := first[s.Task]; f != i {
			s.Baked = carried.Seeds[f].Baked
		} else {
			s.Baked = Bake(s)
		}
	}
	other := carried
	other.Seeds = slices.Clone(carried.Seeds)
	if other.Seeds[1].Task == other.Seeds[0].Task {
		t.Fatal("scenario: the first two seeds are of one task")
	}
	other.Seeds[1].Baked = other.Seeds[0].Baked
	if err := other.Validate(); err == nil {
		t.Fatal("a seed with other Utility and Polls was accepted with another task's rows")
	}
	want := solveChecked(t, in).Digest()
	// Twice: a solve leaves the fragments it shares as it found them.
	for run := 0; run < 2; run++ {
		if got := solveChecked(t, &carried).Digest(); got != want {
			t.Fatalf("run %d: carried fragments digest %s, per-solve %s", run, got, want)
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

// TestHeuristicWarmDigestsPinned is the determinism gate of placement
// through churn, on the 40-switch Fig. 7 scenario: a cold start, a task
// arriving, a task departing, the most loaded switch failing, and a
// settle step where nothing changed. Every solve must be feasible and
// have its step's pinned digest. Every step after the cold start arms
// the warm start from the answer of the step before (Current set,
// Touched non-nil); whether the solve then pins or falls back to a full
// one is the heuristic's call (the kill-switch step falls back: too many
// tasks lost their pins).
func TestHeuristicWarmDigestsPinned(t *testing.T) {
	const switches, seeds, tasks = 40, 400, 12
	in := RandomScenario(ScenarioConfig{Switches: switches, Seeds: seeds, Tasks: tasks, Seed: 7})
	step := func(name, want string) bool {
		return t.Run(name, func(t *testing.T) {
			if name != "cold-start" && (len(in.Current) == 0 || in.Touched == nil) {
				t.Fatalf("warm start not armed: %d current assignments, Touched %v", len(in.Current), in.Touched)
			}
			res := solveChecked(t, in)
			t.Logf("digest %s: %d placed, %d tasks dropped, utility %.1f, %d migrations",
				res.Digest(), len(res.Placed), len(res.DroppedTasks), res.Utility, res.Migrations)
			if got := res.Digest(); got != want {
				t.Fatalf("digest %s, want %s", got, want)
			}
			in.Current = res.Placed
		})
	}
	if !step("cold-start", "25605f414f2c5564") {
		return
	}

	arrival := RandomScenario(ScenarioConfig{Switches: switches, Seeds: seeds / tasks, Tasks: 1, Seed: 14})
	for i := range arrival.Seeds {
		arrival.Seeds[i].ID = fmt.Sprintf("tadd/s%d", i)
		arrival.Seeds[i].Task = "taskadd"
	}
	in.Seeds = append(slices.Clone(in.Seeds), arrival.Seeds...)
	in.Touched = []netmodel.SwitchID{}
	if !step("add-task", "83ede815f31ed9d1") {
		return
	}

	dropTask(in, in.Seeds[0].Task)
	if !step("remove-task", "9587eba2081709f7") {
		return
	}

	killSwitch(in)
	if !step("kill-switch", "c9d372a24200d168") {
		return
	}

	in.Touched = []netmodel.SwitchID{}
	step("settle", "07c900b457df65aa")
}

// TestHeuristicSameAnswerEveryRun: a solve is a function of its Input.
// On identical switches greedy placement breaks utility ties by slack,
// so equal switches must score equal slack bit for bit; summed in map
// order they came out an ulp apart, and repeated warm solves of this
// "place all" problem gave a different placement nearly every run.
func TestHeuristicSameAnswerEveryRun(t *testing.T) {
	in := placeAllScenario(7, 6, 2, -187)
	cold := solveChecked(t, in)
	warm := *in
	warm.Current = maps.Clone(cold.Placed)
	dropTask(&warm, in.Seeds[0].Task)
	want := solveChecked(t, &warm).Digest()
	for run := 0; run < 10; run++ {
		if got := solveChecked(t, &warm).Digest(); got != want {
			t.Fatalf("run %d: digest %s, first run %s", run, got, want)
		}
	}
}

// TestHeuristicWarmStartPinsUnchanged: with nothing touched, a warm
// replan reproduces the previous placement exactly — pinned tasks keep
// their assignments and no migrations fire.
func TestHeuristicWarmStartPinsUnchanged(t *testing.T) {
	in := digestScenario()
	first := solveChecked(t, in)

	warm := *in
	warm.Current = first.Placed
	warm.Touched = []netmodel.SwitchID{}
	res := solveChecked(t, &warm)

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

func sameRes(a, b netmodel.Vector) bool {
	return a.AtLeast(b, 1e-9) && b.AtLeast(a, 1e-9)
}

// TestHeuristicNilTouchedIsClassic: Touched nil is the classic full
// solve even with Current set — no task pins — while an empty Touched
// over the same Current arms the warm start.
func TestHeuristicNilTouchedIsClassic(t *testing.T) {
	in := digestScenario()
	first := solveChecked(t, in)

	withCur := *in
	withCur.Current = first.Placed
	if pinsHeld(t, &withCur) {
		t.Fatal("a nil-Touched solve pinned tasks")
	}
	warm := withCur
	warm.Touched = []netmodel.SwitchID{}
	if !pinsHeld(t, &warm) {
		t.Fatal("an empty Touched over an unchanged Current did not pin")
	}
}

// TestHeuristicWarmFallsBackWhenMostlyDirty: when more tasks must
// re-place than DefaultFullThreshold allows, the warm path gives up its
// pins and the result equals the full solve.
func TestHeuristicWarmFallsBackWhenMostlyDirty(t *testing.T) {
	in := digestScenario()
	first := solveChecked(t, in)

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
	fellBack := solveChecked(t, &warm)

	forced := warm
	forced.Touched = nil
	full := solveChecked(t, &forced)
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
	first := solveChecked(t, in)
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
