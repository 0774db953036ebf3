package placement

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// twoSwitchInput builds a tiny problem with hand-checkable optimum.
func twoSwitchInput() *Input {
	capSmall := netmodel.Vector{
		netmodel.ResVCPU: 2, netmodel.ResRAM: 1024,
		netmodel.ResTCAM: 64, netmodel.ResPCIe: 4, netmodel.ResPoll: 500,
	}
	// Seed utility: min-linear in vCPU, feasible above 0.5 vCPU.
	mkSeed := func(id, task string, cands ...netmodel.SwitchID) SeedSpec {
		return SeedSpec{
			ID: id, Task: task,
			Candidates: cands,
			Utility: poly.Utility{{
				Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(0.5))},
				Util:        poly.MinOf(poly.Term(netmodel.ResVCPU, 10)),
			}},
			Polls: []PollDemand{{Subject: "ports:all", Rate: poly.Constant(100)}},
		}
	}
	return &Input{
		Switches: []SwitchInfo{
			{ID: 0, Capacity: capSmall},
			{ID: 1, Capacity: capSmall},
		},
		Seeds: []SeedSpec{
			mkSeed("a", "t1", 0, 1),
			mkSeed("b", "t1", 0, 1),
		},
	}
}

func TestHeuristicBasicPlacement(t *testing.T) {
	in := twoSwitchInput()
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != 2 || len(res.DroppedTasks) != 0 {
		t.Fatalf("placed=%d dropped=%v", len(res.Placed), res.DroppedTasks)
	}
	if err := CheckFeasible(in, res); err != nil {
		t.Fatal(err)
	}
	// LP redistribution should push each seed to its switch's full
	// 2 vCPU when seeds land on different switches, or split 2 vCPU
	// when they share; either way total utility = 10 * total vCPU
	// granted and must be at least 10*2 (all seeds at min 0.5 would be
	// 10; redistribution must do better on 2 switches x 2 vCPU).
	if res.Utility < 20-1e-6 {
		t.Fatalf("utility = %g, want >= 20 after redistribution", res.Utility)
	}
}

func TestHeuristicDropsWholeTask(t *testing.T) {
	in := twoSwitchInput()
	// Add a task with one placeable and one impossible seed.
	in.Seeds = append(in.Seeds,
		SeedSpec{
			ID: "c", Task: "t2", Candidates: []netmodel.SwitchID{0},
			Utility: poly.Utility{{Util: poly.MinOf(poly.Constant(1))}},
		},
		SeedSpec{
			ID: "d", Task: "t2", Candidates: []netmodel.SwitchID{1},
			Utility: poly.Utility{{
				Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(999))},
				Util:        poly.MinOf(poly.Constant(1000)),
			}},
		},
	)
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DroppedTasks) != 1 || res.DroppedTasks[0] != "t2" {
		t.Fatalf("dropped = %v, want [t2]", res.DroppedTasks)
	}
	if _, ok := res.Placed["c"]; ok {
		t.Fatal("partial task placement violates C1")
	}
	if err := CheckFeasible(in, res); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicRespectsCandidates(t *testing.T) {
	in := twoSwitchInput()
	in.Seeds[0].Candidates = []netmodel.SwitchID{1}
	in.Seeds[1].Candidates = []netmodel.SwitchID{1}
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range res.Placed {
		if a.Switch != 1 {
			t.Fatalf("seed %s on switch %d, want 1", id, a.Switch)
		}
	}
}

func TestHeuristicKeepsCurrentPlacement(t *testing.T) {
	in := twoSwitchInput()
	first, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Current = first.Placed
	second, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range second.Placed {
		if a.Switch != first.Placed[id].Switch {
			t.Fatalf("seed %s migrated from %d to %d without need",
				id, first.Placed[id].Switch, a.Switch)
		}
	}
	if second.Migrations != 0 {
		t.Fatalf("migrations = %d, want 0", second.Migrations)
	}
}

func TestHeuristicMigratesWhenBeneficial(t *testing.T) {
	// One big switch, one tiny switch. Seed x starts (per Current) on
	// the tiny one; moving it to the big one raises its utility well
	// past the migration cost.
	big := netmodel.Vector{netmodel.ResVCPU: 8, netmodel.ResRAM: 4096, netmodel.ResPoll: 1000, netmodel.ResPCIe: 8, netmodel.ResTCAM: 64}
	tiny := netmodel.Vector{netmodel.ResVCPU: 0.6, netmodel.ResRAM: 256, netmodel.ResPoll: 1000, netmodel.ResPCIe: 1, netmodel.ResTCAM: 8}
	in := &Input{
		Switches: []SwitchInfo{{ID: 0, Capacity: big}, {ID: 1, Capacity: tiny}},
		Seeds: []SeedSpec{{
			ID: "x", Task: "t",
			Candidates: []netmodel.SwitchID{0, 1},
			Utility: poly.Utility{{
				Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(0.5))},
				Util:        poly.MinOf(poly.Term(netmodel.ResVCPU, 10)),
			}},
		}},
		Current: map[string]Assignment{
			"x": {Switch: 1, Alloc: netmodel.Vector{netmodel.ResVCPU: 0.5}, Case: 0, Utility: 5},
		},
	}
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Placed["x"]
	if a.Switch != 0 {
		t.Fatalf("seed stayed on switch %d; migration benefit ignored", a.Switch)
	}
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", res.Migrations)
	}
	if a.Utility < 50 {
		t.Fatalf("post-migration utility = %g, want ~80", a.Utility)
	}
}

func TestHeuristicMigrationDisabled(t *testing.T) {
	in := twoSwitchInput()
	in.Current = map[string]Assignment{
		"a": {Switch: 0, Alloc: netmodel.Vector{netmodel.ResVCPU: 0.5}, Case: 0},
		"b": {Switch: 0, Alloc: netmodel.Vector{netmodel.ResVCPU: 0.5}, Case: 0},
	}
	in.DisableMigration = true
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatalf("migrations = %d with migration disabled", res.Migrations)
	}
}

func TestHeuristicPollSharing(t *testing.T) {
	// Poll capacity 150; each seed demands 100 polls/s on the SAME
	// subject: aggregation shares the demand (max, not sum), so both
	// fit on one switch. On different subjects they would not.
	capacity := netmodel.Vector{
		netmodel.ResVCPU: 4, netmodel.ResRAM: 4096,
		netmodel.ResPoll: 150, netmodel.ResPCIe: 4, netmodel.ResTCAM: 64,
	}
	mk := func(id, subject string) SeedSpec {
		return SeedSpec{
			ID: id, Task: id,
			Candidates: []netmodel.SwitchID{0},
			Utility:    poly.Utility{{Util: poly.MinOf(poly.Constant(1))}},
			Polls:      []PollDemand{{Subject: subject, Rate: poly.Constant(100)}},
		}
	}
	shared := &Input{
		Switches: []SwitchInfo{{ID: 0, Capacity: capacity}},
		Seeds:    []SeedSpec{mk("a", "ports:all"), mk("b", "ports:all")},
	}
	res, err := Heuristic(shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != 2 {
		t.Fatalf("shared-subject seeds placed = %d, want 2 (aggregation)", len(res.Placed))
	}
	distinct := &Input{
		Switches: []SwitchInfo{{ID: 0, Capacity: capacity}},
		Seeds:    []SeedSpec{mk("a", "ports:all"), mk("b", "rule:other")},
	}
	res2, err := Heuristic(distinct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Placed) != 1 {
		t.Fatalf("distinct-subject seeds placed = %d, want 1 (no sharing)", len(res2.Placed))
	}
}

func TestMILPBasic(t *testing.T) {
	in := twoSwitchInput()
	res, err := MILP(in, MILPOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != 2 {
		t.Fatalf("placed = %d", len(res.Placed))
	}
	if err := CheckFeasible(in, res); err != nil {
		t.Fatal(err)
	}
	if res.Utility < 20-1e-4 {
		t.Fatalf("MILP utility = %g, want >= 20", res.Utility)
	}
}

func TestMILPBeatsOrMatchesHeuristic(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		in := RandomScenario(ScenarioConfig{Switches: 3, Seeds: 6, Tasks: 3, Seed: seed})
		h, err := Heuristic(in)
		if err != nil {
			t.Fatal(err)
		}
		m, err := MILP(in, MILPOptions{Timeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(in, h); err != nil {
			t.Fatalf("seed %d: heuristic infeasible: %v", seed, err)
		}
		if err := CheckFeasible(in, m); err != nil {
			t.Fatalf("seed %d: MILP infeasible: %v", seed, err)
		}
		// The exact optimum is an upper bound for the heuristic
		// (allowing small LP tolerance).
		if h.Utility > m.Utility+1e-3 && len(m.DroppedTasks) == 0 {
			t.Fatalf("seed %d: heuristic %g beats complete MILP %g", seed, h.Utility, m.Utility)
		}
	}
}

func TestMILPInfeasibleTaskDropped(t *testing.T) {
	in := &Input{
		Switches: []SwitchInfo{{ID: 0, Capacity: netmodel.Vector{netmodel.ResVCPU: 1}}},
		Seeds: []SeedSpec{{
			ID: "x", Task: "t", Candidates: []netmodel.SwitchID{0},
			Utility: poly.Utility{{
				Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(5))},
				Util:        poly.MinOf(poly.Constant(10)),
			}},
		}},
	}
	res, err := MILP(in, MILPOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != 0 || len(res.DroppedTasks) != 1 {
		t.Fatalf("placed=%d dropped=%v", len(res.Placed), res.DroppedTasks)
	}
}

// Property: on random scenarios the heuristic always returns feasible
// placements satisfying (C1)-(C4).
func TestHeuristicAlwaysFeasible(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := RandomScenario(ScenarioConfig{Switches: 6, Seeds: 30, Tasks: 5, Seed: seed})
		res, err := Heuristic(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckFeasible(in, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Utility < 0 {
			t.Fatalf("seed %d: negative utility %g", seed, res.Utility)
		}
	}
}

// TestCheckFeasibleReportsOneViolation: with two seeds each violating
// its case constraints, CheckFeasible names the same one, the lowest ID,
// on every call — not whichever a map walk meets first.
func TestCheckFeasibleReportsOneViolation(t *testing.T) {
	in := twoSwitchInput()
	starved := netmodel.Vector{netmodel.ResVCPU: 0.1}
	res := &Result{Placed: map[string]Assignment{
		"a": {Switch: 0, Alloc: starved},
		"b": {Switch: 1, Alloc: starved},
	}}
	want := "placement: seed a allocation {vCPU=0.1} violates case 0 constraints"
	for i := 0; i < 50; i++ {
		if err := CheckFeasible(in, res); err == nil || err.Error() != want {
			t.Fatalf("call %d: %v, want %s", i, err, want)
		}
	}
}

func TestHeuristicScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check skipped in -short")
	}
	in := RandomScenario(ScenarioConfig{Switches: 100, Seeds: 1000, Tasks: 10, Seed: 1})
	start := time.Now()
	res, err := Heuristic(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(in, res); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("heuristic took %v on 1000 seeds/100 switches", elapsed)
	}
	if len(res.Placed) == 0 {
		t.Fatal("nothing placed")
	}
}

func TestValidateErrors(t *testing.T) {
	base := twoSwitchInput()
	cases := []struct {
		name string
		mut  func(*Input)
	}{
		{"empty ID", func(in *Input) { in.Seeds[0].ID = "" }},
		{"dup ID", func(in *Input) { in.Seeds[1].ID = in.Seeds[0].ID }},
		{"no candidates", func(in *Input) { in.Seeds[0].Candidates = nil }},
		{"bad candidate", func(in *Input) { in.Seeds[0].Candidates = []netmodel.SwitchID{99} }},
		{"no utility", func(in *Input) { in.Seeds[0].Utility = nil }},
		{"dup switch", func(in *Input) { in.Switches = append(in.Switches, in.Switches[0]) }},
		{"baked for another seed", func(in *Input) { in.Seeds[0].Baked = Bake(&in.Seeds[1]) }},
		{"baked from another utility", func(in *Input) {
			in.Seeds[0].Baked = Bake(&in.Seeds[0])
			in.Seeds[0].Utility = slices.Clone(in.Seeds[0].Utility)
		}},
	}
	for _, c := range cases {
		in := twoSwitchInput()
		c.mut(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base should validate: %v", err)
	}
	for i := range base.Seeds {
		base.Seeds[i].Baked = Bake(&base.Seeds[i])
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base with its own fragments should validate: %v", err)
	}
}

func TestRandomScenarioShape(t *testing.T) {
	in := RandomScenario(ScenarioConfig{Switches: 5, Seeds: 20, Tasks: 4, Seed: 7})
	if len(in.Switches) != 5 || len(in.Seeds) != 20 {
		t.Fatalf("shape: %d switches, %d seeds", len(in.Switches), len(in.Seeds))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	tasks := map[string]bool{}
	for _, s := range in.Seeds {
		tasks[s.Task] = true
	}
	if len(tasks) != 4 {
		t.Fatalf("tasks = %d, want 4", len(tasks))
	}
	// Determinism.
	in2 := RandomScenario(ScenarioConfig{Switches: 5, Seeds: 20, Tasks: 4, Seed: 7})
	for i := range in.Seeds {
		if in.Seeds[i].ID != in2.Seeds[i].ID || len(in.Seeds[i].Candidates) != len(in2.Seeds[i].Candidates) {
			t.Fatal("scenario generation not deterministic")
		}
	}
}

func TestMinimalAllocSimpleBounds(t *testing.T) {
	c := poly.Case{
		Constraints: []poly.Linear{
			poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(0.5)),
			poly.Term(netmodel.ResRAM, 2).Sub(poly.Constant(100)), // 2*RAM >= 100 -> RAM >= 50
		},
	}
	alloc, ok := minimalAlloc(c, netmodel.Vector{netmodel.ResVCPU: 4, netmodel.ResRAM: 1024})
	if !ok {
		t.Fatal("should be feasible")
	}
	if alloc[netmodel.ResVCPU] != 0.5 || alloc[netmodel.ResRAM] != 50 {
		t.Fatalf("alloc = %v", alloc)
	}
	// Infeasible against capacity.
	if _, ok := minimalAlloc(c, netmodel.Vector{netmodel.ResVCPU: 0.25, netmodel.ResRAM: 1024}); ok {
		t.Fatal("should be infeasible")
	}
}

func TestMinimalAllocGeneralLP(t *testing.T) {
	// vCPU + RAM >= 10 (two-variable constraint forces the LP path).
	c := poly.Case{
		Constraints: []poly.Linear{
			poly.Term(netmodel.ResVCPU, 1).Add(poly.Term(netmodel.ResRAM, 1)).Sub(poly.Constant(10)),
		},
	}
	alloc, ok := minimalAlloc(c, netmodel.Vector{netmodel.ResVCPU: 4, netmodel.ResRAM: 1024})
	if !ok {
		t.Fatal("should be feasible")
	}
	if got := alloc[netmodel.ResVCPU] + alloc[netmodel.ResRAM]; got < 10-1e-6 {
		t.Fatalf("sum = %g, want >= 10", got)
	}
}

// TestMILPBuildDeterministic: the exact solver's formulation is a
// function of its input, row for row and coefficient for coefficient,
// so a degenerate instance ends on the same vertex every run. The
// instance puts five poll subjects on one switch, whose shared-poll
// budget row lists them all.
func TestMILPBuildDeterministic(t *testing.T) {
	in := twoSwitchInput()
	for i := range in.Seeds {
		in.Seeds[i].Polls = nil
		for _, subj := range []string{"ports:all", "rule:a", "rule:b", "rule:c", "rule:d"} {
			in.Seeds[i].Polls = append(in.Seeds[i].Polls, PollDemand{Subject: subj, Rate: poly.Constant(10)})
		}
	}
	want := buildMILP(in).prob
	for run := 0; run < 20; run++ {
		if got := buildMILP(in).prob; !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d formulated another problem than the first", run+1)
		}
	}
}
