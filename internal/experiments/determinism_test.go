package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestFig4Deterministic renders a small Fig. 4 twice and requires the
// two tables to be byte-identical: every reported number is a function
// of virtual time and seeds, never of the host.
func TestFig4Deterministic(t *testing.T) {
	render := func() string {
		res, err := Fig4(Fig4Config{
			PortCounts: []int{48, 96},
			Duration:   2 * time.Second,
			Churn:      time.Second,
		})
		if err != nil {
			t.Fatalf("Fig4: %v", err)
		}
		return res.Table().Render()
	}

	run1, run2 := render(), render()
	if run1 != run2 {
		t.Fatalf("runs diverged:\n--- run 1\n%s\n--- run 2\n%s", run1, run2)
	}
}

// TestPlacementScaleConsistent holds the placement experiments to the
// heuristic's determinism contract on the path they run it: with
// Input.Parallel left at 0, step 3 fans out over GOMAXPROCS workers.
// The Fig. 7 heuristic column (up to the 40-switch, 400-seed point) and
// the Alg. 1 ablation must report the same utilities and migrations with
// one worker as with four; only runtimes may differ.
func TestPlacementScaleConsistent(t *testing.T) {
	report := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fig7, err := Fig7(Fig7Config{SeedCounts: []int{100, 400}, Runs: 2, SkipMILPAbove: 1})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Fig7: %v", procs, err)
		}
		abl, err := Ablation(AblationConfig{Switches: 20, Seeds: 120, Tasks: 8, Runs: 2})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Ablation: %v", procs, err)
		}
		var out []string
		for _, p := range fig7.Heuristic {
			out = append(out, fmt.Sprintf("fig7 %d seeds / %d switches: utility %v over %d runs",
				p.Seeds, p.Switches, p.Utility, p.Solved))
		}
		for _, r := range abl.Passes.Rows {
			out = append(out, fmt.Sprintf("ablation %s: utility %s", r.Label, r.Values[0]))
		}
		return append(out, abl.Migration.Render())
	}
	serial := report(1)
	if len(serial) != 2+3+1 {
		t.Fatalf("got %d report lines, want 6:\n%s", len(serial), strings.Join(serial, "\n"))
	}
	parallel := report(4)
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Fatalf("four step-3 workers diverged from one:\n--- one\n%s\n--- four\n%s", serial[i], parallel[i])
		}
	}
}
