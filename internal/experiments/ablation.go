package experiments

import (
	"fmt"
	"time"

	"farm/internal/netmodel"
	"farm/internal/placement"
	"farm/internal/poly"
)

// AblationResult compares Alg. 1 variants (DESIGN.md §4): greedy only,
// greedy + LP redistribution, and the full heuristic with migration, on
// a re-optimization scenario; plus the migration-cost sensitivity.
type AblationResult struct {
	Passes    *Table
	Migration *Table
}

// The ablation scenario's size: ablationRuns random instances of
// ablationSeeds seeds of ablationTasks tasks on ablationSwitches
// switches.
const (
	ablationSwitches = 10
	ablationSeeds    = 80
	ablationTasks    = 8
	ablationRuns     = 3
)

// Ablation runs both ablation studies.
func Ablation() (*AblationResult, error) {
	passes, err := ablationPasses()
	if err != nil {
		return nil, err
	}
	migr, err := ablationMigrationCost()
	if err != nil {
		return nil, err
	}
	return &AblationResult{Passes: passes, Migration: migr}, nil
}

// ablationPasses isolates the contribution of each Alg. 1 pass.
func ablationPasses() (*Table, error) {
	t := &Table{
		Title:   "Ablation: Alg. 1 passes (utility gained per pass)",
		Columns: []string{"utility", "runtime"},
	}
	type variant struct {
		label string
		mut   func(*placement.Input)
	}
	variants := []variant{
		{"greedy only", func(in *placement.Input) { in.SkipRedistribution = true; in.DisableMigration = true }},
		{"greedy + LP redistribution", func(in *placement.Input) { in.DisableMigration = true }},
		{"full Alg. 1 (with migration)", func(in *placement.Input) {}},
	}
	for _, v := range variants {
		var util float64
		var rt time.Duration
		for run := 0; run < ablationRuns; run++ {
			in := placement.RandomScenario(placement.ScenarioConfig{
				Switches: ablationSwitches, Seeds: ablationSeeds, Tasks: ablationTasks,
				Seed: int64(run),
			})
			// Re-optimization setting: the migration pass only engages
			// with an existing placement, so seed it with a fresh
			// greedy-only run.
			base := placement.RandomScenario(placement.ScenarioConfig{
				Switches: ablationSwitches, Seeds: ablationSeeds, Tasks: ablationTasks,
				Seed: int64(run),
			})
			base.SkipRedistribution = true
			base.DisableMigration = true
			prior, err := placement.Heuristic(base)
			if err != nil {
				return nil, err
			}
			in.Current = prior.Placed
			in.MigrationCost = 0.5
			v.mut(in)
			res, err := placement.Heuristic(in)
			if err != nil {
				return nil, err
			}
			if err := placement.CheckFeasible(in, res); err != nil {
				return nil, fmt.Errorf("experiments: ablation %s: %w", v.label, err)
			}
			util += res.Utility
			rt += res.Runtime
		}
		t.Rows = append(t.Rows, Row{Label: v.label, Values: []string{
			fmtFloat(util / ablationRuns),
			fmtDuration(rt / ablationRuns),
		}})
	}
	return t, nil
}

// ablationMigrationCost sweeps the migration penalty on a scenario
// where moving is genuinely attractive: every seed starts (per the
// prior placement) on a cramped switch while roomy switches sit idle.
// The penalty decides how many of those beneficial moves survive.
func ablationMigrationCost() (*Table, error) {
	t := &Table{
		Title:   "Ablation: migration-cost sensitivity (re-optimization)",
		Columns: []string{"migrations", "utility"},
	}
	build := func() *placement.Input {
		small := netmodel.Vector{
			netmodel.ResVCPU: 1.2, netmodel.ResRAM: 2048,
			netmodel.ResTCAM: 64, netmodel.ResPCIe: 4, netmodel.ResPoll: 20000,
		}
		big := netmodel.DefaultLeafCapacity()
		in := &placement.Input{Current: map[string]placement.Assignment{}}
		const nPairs = ablationSwitches / 2
		for i := 0; i < nPairs; i++ {
			in.Switches = append(in.Switches,
				placement.SwitchInfo{ID: netmodel.SwitchID(2 * i), Capacity: small},
				placement.SwitchInfo{ID: netmodel.SwitchID(2*i + 1), Capacity: big},
			)
		}
		// One seed per pair, currently on the small switch; utility
		// scales with vCPU so the big neighbor is worth moving to.
		for i := 0; i < nPairs; i++ {
			id := fmt.Sprintf("t%d/s0", i)
			in.Seeds = append(in.Seeds, placement.SeedSpec{
				ID: id, Task: fmt.Sprintf("t%d", i),
				Candidates: []netmodel.SwitchID{netmodel.SwitchID(2 * i), netmodel.SwitchID(2*i + 1)},
				Utility: poly.Utility{{
					Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(1))},
					Util:        poly.MinOf(poly.Term(netmodel.ResVCPU, 10)),
				}},
			})
			in.Current[id] = placement.Assignment{
				Switch: netmodel.SwitchID(2 * i),
				Alloc:  netmodel.Vector{netmodel.ResVCPU: 1},
				Case:   0, Utility: 10,
			}
		}
		return in
	}
	for _, mc := range []float64{0.1, 5, 15, 25, 1e6} {
		in := build()
		in.MigrationCost = mc
		res, err := placement.Heuristic(in)
		if err != nil {
			return nil, err
		}
		if err := placement.CheckFeasible(in, res); err != nil {
			return nil, fmt.Errorf("experiments: migration ablation: %w", err)
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("cost=%g", mc),
			Values: []string{fmt.Sprint(res.Migrations), fmtFloat(res.Utility)},
		})
	}
	t.Notes = append(t.Notes,
		"seeds start on cramped switches; each move to the roomy neighbor is worth ~28 utility",
		"higher migration cost suppresses moves; utility degrades once beneficial moves are priced out")
	return t, nil
}
