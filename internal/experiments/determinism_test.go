package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestFig4Deterministic renders a small Fig. 4 three times — twice on
// the serial engine, once on the sharded executor — and requires all
// three tables to be byte-identical. This is the regression gate for
// the engine's determinism contract: parallel execution must not change
// any reported number, only the wall-clock time it takes to produce it.
func TestFig4Deterministic(t *testing.T) {
	render := func(eng EngineConfig) string {
		res, err := Fig4(Fig4Config{
			PortCounts: []int{48, 96},
			Duration:   2 * time.Second,
			Churn:      time.Second,
			Engine:     eng,
		})
		if err != nil {
			t.Fatalf("Fig4: %v", err)
		}
		return res.Table().Render()
	}

	serial1 := render(EngineConfig{})
	serial2 := render(EngineConfig{})
	if serial1 != serial2 {
		t.Fatalf("serial runs diverged:\n--- run 1\n%s\n--- run 2\n%s", serial1, serial2)
	}
	sharded := render(EngineConfig{Workers: 4})
	if sharded != serial1 {
		t.Fatalf("sharded run diverged from serial:\n--- serial\n%s\n--- sharded\n%s", serial1, sharded)
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
