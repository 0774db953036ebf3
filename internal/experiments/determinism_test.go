package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestPlacementScaleConsistent holds the placement experiments to the
// heuristic's determinism contract on the path they run it: with
// Input.Parallel left at 0, step 3 fans out over GOMAXPROCS workers.
// Fig. 7's quick-scale heuristic column (up to the 40-switch, 400-seed
// point) and the Alg. 1 ablation must report the same utilities and
// migrations with one worker as with four; only runtimes may differ.
func TestPlacementScaleConsistent(t *testing.T) {
	report := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f7, err := fig7(fig7QuickHeuristic())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Fig7: %v", procs, err)
		}
		abl, err := Ablation()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Ablation: %v", procs, err)
		}
		var out []string
		for _, p := range f7.Heuristic {
			out = append(out, fmt.Sprintf("fig7 %d seeds / %d switches: utility %v over %d runs",
				p.Seeds, p.Switches, p.Utility, p.Solved))
		}
		for _, r := range abl.Passes.Rows {
			out = append(out, fmt.Sprintf("ablation %s: utility %s", r.Label, r.Values[0]))
		}
		return append(out, abl.Migration.Render())
	}
	serial := report(1)
	if len(serial) != 5+3+1 {
		t.Fatalf("got %d report lines, want 9:\n%s", len(serial), strings.Join(serial, "\n"))
	}
	parallel := report(4)
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Fatalf("four step-3 workers diverged from one:\n--- one\n%s\n--- four\n%s", serial[i], parallel[i])
		}
	}
}
