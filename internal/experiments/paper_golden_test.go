package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quickScale holds the quick-scale result of every simulated experiment,
// the runs farm-bench makes without -full. It is computed once per test
// binary: TestPaperOutputsGolden pins its rendering, and the Test*Shape
// tests check the paper's claims on the same numbers.
type quickScale struct {
	tab4 *Tab4Result
	fig4 *Fig4Result
	fig5 *Fig5Result
	fig6 *Fig6Result
	fig7 *Fig7Result // the heuristic column only: see fig7QuickHeuristic
	fig8 *Fig8Result
	fig9 *Fig9Result
	abl  *AblationResult
}

var (
	quickOnce sync.Once
	quickRes  quickScale
	quickErr  error
)

// quick returns the shared quick-scale results.
func quick(t *testing.T) *quickScale {
	t.Helper()
	quickOnce.Do(func() {
		q := &quickRes
		var errs [8]error
		q.tab4, errs[0] = Tab4()
		q.fig4, errs[1] = Fig4(false)
		q.fig5, errs[2] = Fig5(false)
		q.fig6, errs[3] = Fig6(false)
		q.fig7, errs[4] = fig7(fig7QuickHeuristic())
		q.fig8, errs[5] = Fig8()
		q.fig9, errs[6] = Fig9()
		q.abl, errs[7] = Ablation()
		quickErr = errors.Join(errs[:]...)
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return &quickRes
}

// fig7QuickHeuristic is Fig. 7's quick grid with the exact solver off:
// its rows wait out wall-clock deadlines (about 3 min at this grid) and
// so do not repeat.
func fig7QuickHeuristic() fig7Scale {
	sc := fig7Quick
	sc.milpMaxSeeds = 0
	return sc
}

// blankRuntime returns a copy of tb with its wall-clock "runtime" column
// replaced by "-".
func blankRuntime(tb *Table) *Table {
	cp := *tb
	cp.Rows = nil
	for _, r := range tb.Rows {
		vals := append([]string(nil), r.Values...)
		for i, c := range tb.Columns {
			if c == "runtime" {
				vals[i] = "-"
			}
		}
		cp.Rows = append(cp.Rows, Row{Label: r.Label, Values: vals})
	}
	return &cp
}

// TestPaperOutputsGolden pins the paper's tables and figures: Tab. I, 4
// and V, Fig. 4, 5, 6, 7, 8 and 9 and the ablation, as farm-bench prints
// them at quick scale. The runtime columns of Fig. 7 and the ablation
// are wall time, so they are blanked; Fig. 7's MILP rows depend on a
// wall-clock deadline and Fig. 10 is wall time, so both are left out. An
// intended change to an output shows as a diff of
// testdata/paper_outputs.golden; rewrite it with -update.
func TestPaperOutputsGolden(t *testing.T) {
	q := quick(t)
	var b strings.Builder
	for _, tb := range []*Table{
		Tab1().Table(), q.tab4.Table(), Tab5(),
		q.fig4.Table(), q.fig5.Table(), q.fig6.Table(), blankRuntime(q.fig7.Table()),
		q.fig8.Table(), q.fig9.Table(),
		blankRuntime(q.abl.Passes), q.abl.Migration,
	} {
		b.WriteString(tb.Render())
		b.WriteString("\n")
	}

	got := b.String()
	path := filepath.Join("testdata", "paper_outputs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("paper outputs differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
			}
		}
	}
}
