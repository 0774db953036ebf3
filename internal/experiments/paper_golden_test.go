package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestPaperOutputsGolden pins the paper's tables and figures: Tab. I, 4
// and V, Fig. 4, 5, 6, 8 and 9 and the ablation, at farm-bench's quick
// scale (the configurations below are cmd/farm-bench's), rendered by
// Table.Render as farm-bench prints them. The ablation's runtime column
// is wall time, so it is blanked; Fig. 7 and Fig. 10 are left out for
// the same reason. An intended change to an output shows as a diff of
// testdata/paper_outputs.golden; rewrite it with -update.
func TestPaperOutputsGolden(t *testing.T) {
	var b strings.Builder
	add := func(tables ...*Table) {
		for _, tb := range tables {
			b.WriteString(tb.Render())
			b.WriteString("\n")
		}
	}

	add(Tab1().Table())
	tab4, err := Tab4(Tab4Config{})
	if err != nil {
		t.Fatal(err)
	}
	add(tab4.Table())
	add(Tab5())

	fig4, err := Fig4(Fig4Config{
		PortCounts: []int{48, 96, 240, 480},
		Duration:   8 * time.Second,
		Churn:      3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	add(fig4.Table())
	fig5, err := Fig5(Fig5Config{
		FlowCounts: []int{100, 1000, 5000, 10000},
		Duration:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	add(fig5.Table())
	fig6, err := Fig6(Fig6Config{
		HHSeedCounts: []int{10, 40, 100},
		MLSeedCounts: []int{10, 50, 150, 250},
		Duration:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	add(fig6.Table())
	fig8, err := Fig8(Fig8Config{})
	if err != nil {
		t.Fatal(err)
	}
	add(fig8.Table())
	fig9, err := Fig9(Fig9Config{})
	if err != nil {
		t.Fatal(err)
	}
	add(fig9.Table())

	abl, err := Ablation(AblationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range abl.Passes.Columns {
		if c == "runtime" {
			for _, r := range abl.Passes.Rows {
				r.Values[i] = "-"
			}
		}
	}
	add(abl.Passes, abl.Migration)

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
