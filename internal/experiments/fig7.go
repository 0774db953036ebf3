package experiments

import (
	"fmt"
	"time"

	"farm/internal/placement"
)

// fig7Scale is one Fig. 7 grid. The exact solver runs only up to
// milpMaxSeeds seeds, with the two budgets that stand in for the
// paper's Gurobi 1 s and 10 min: branch & bound on a dense simplex does
// not reach paper scale, and the heuristic column, the claim under test,
// keeps going.
type fig7Scale struct {
	seedCounts          []int
	switchesPerSeed     float64
	runs                int // per point, with varying random needs (paper: 10)
	milpShort, milpLong time.Duration
	milpMaxSeeds        int
}

var (
	// fig7Quick is a laptop-scale sweep with the paper's grid shape and
	// seed:switch ratio (10200 seeds : 1040 switches, ~10:1). Our
	// from-scratch branch & bound stops producing incumbents beyond ~40
	// seeds within minutes-scale budgets; Gurobi went further in the
	// paper.
	fig7Quick = fig7Scale{
		seedCounts: []int{20, 30, 40, 100, 400}, switchesPerSeed: 0.1, runs: 3,
		milpShort: time.Second, milpLong: 20 * time.Second, milpMaxSeeds: 40,
	}
	// fig7Full is the paper's grid: 1000..10200 seeds on up to 1040
	// switches. The exact solver cannot follow; the heuristic can.
	fig7Full = fig7Scale{
		seedCounts: []int{1000, 4000, 7000, 10200}, switchesPerSeed: 1040.0 / 10200.0, runs: 3,
		milpShort: time.Second, milpLong: 20 * time.Second, milpMaxSeeds: 400,
	}
)

// Fig7Point is one (solver, size) aggregate over runs.
type Fig7Point struct {
	Seeds    int
	Switches int
	Utility  float64 // mean
	Runtime  time.Duration
}

// Fig7Result is the reproduced Fig. 7 (a: utility, b: runtime).
type Fig7Result struct {
	Heuristic               []Fig7Point
	MILPShort               []Fig7Point
	MILPLong                []Fig7Point
	ShortBudget, LongBudget time.Duration
}

// Fig7 compares FARM's Alg. 1 heuristic against the time-boxed exact
// MILP across problem sizes, reporting mean monitoring utility (MU) and
// mean solver runtime per size.
func Fig7(full bool) (*Fig7Result, error) {
	if full {
		return fig7(fig7Full)
	}
	return fig7(fig7Quick)
}

func fig7(sc fig7Scale) (*Fig7Result, error) {
	res := &Fig7Result{ShortBudget: sc.milpShort, LongBudget: sc.milpLong}
	for _, seeds := range sc.seedCounts {
		switches := int(float64(seeds) * sc.switchesPerSeed)
		if switches < 2 {
			switches = 2
		}
		var hU, hT, sU, sT, lU, lT float64
		var milpRuns int // the runs small enough for the exact solver
		for run := 0; run < sc.runs; run++ {
			in := placement.RandomScenario(placement.ScenarioConfig{
				Switches: switches,
				Seeds:    seeds,
				Tasks:    10,
				Seed:     int64(run*1000 + seeds),
			})
			h, err := placement.Heuristic(in)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig7 heuristic: %w", err)
			}
			hU += h.Utility
			hT += h.Runtime.Seconds()
			if seeds <= sc.milpMaxSeeds {
				ms, err := placement.MILP(in, placement.MILPOptions{Timeout: sc.milpShort})
				if err != nil {
					return nil, fmt.Errorf("experiments: fig7 milp-short: %w", err)
				}
				sU += ms.Utility
				sT += ms.Runtime.Seconds()
				ml, err := placement.MILP(in, placement.MILPOptions{Timeout: sc.milpLong})
				if err != nil {
					return nil, fmt.Errorf("experiments: fig7 milp-long: %w", err)
				}
				lU += ml.Utility
				lT += ml.Runtime.Seconds()
				milpRuns++
			}
		}
		res.Heuristic = append(res.Heuristic, Fig7Point{
			Seeds: seeds, Switches: switches,
			Utility: hU / float64(sc.runs),
			Runtime: time.Duration(hT / float64(sc.runs) * float64(time.Second)),
		})
		if n := float64(milpRuns); n > 0 {
			res.MILPShort = append(res.MILPShort, Fig7Point{
				Seeds: seeds, Switches: switches,
				Utility: sU / n,
				Runtime: time.Duration(sT / n * float64(time.Second)),
			})
			res.MILPLong = append(res.MILPLong, Fig7Point{
				Seeds: seeds, Switches: switches,
				Utility: lU / n,
				Runtime: time.Duration(lT / n * float64(time.Second)),
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 7: placement utility (a) and runtime (b), heuristic vs exact MILP",
		Columns: []string{"seeds", "switches", "utility", "runtime"},
	}
	add := func(label string, pts []Fig7Point) {
		for _, p := range pts {
			t.Rows = append(t.Rows, Row{Label: label, Values: []string{
				fmt.Sprint(p.Seeds), fmt.Sprint(p.Switches),
				fmtFloat(p.Utility), fmtDuration(p.Runtime),
			}})
		}
	}
	add("FARM heuristic", r.Heuristic)
	add(fmt.Sprintf("MILP (%s)", fmtDuration(r.ShortBudget)), r.MILPShort)
	add(fmt.Sprintf("MILP (%s)", fmtDuration(r.LongBudget)), r.MILPLong)
	t.Notes = append(t.Notes,
		"MILP rows stop where branch & bound exceeds its budget without a usable incumbent",
		"paper grid: up to 10200 seeds / 1040 switches; run cmd/farm-bench -exp fig7 -full for that scale (heuristic only)")
	return t
}
