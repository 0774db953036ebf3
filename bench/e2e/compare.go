package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a comparison row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges B against A on one end-to-end metric. A run-to-run
// spread wider than the bound, on either side, means the runs cannot
// tell: unresolved, not unchanged. B regressed when its median is worse
// than A's by more than the bound; it improved when it is better by
// more than the distance between A's own quartiles.
func verdict(d metricDecl, a, b Dist) string {
	if a.iqrRatio() > d.Bound || b.iqrRatio() > d.Bound {
		return verdictUnresolved
	}
	worse := b.P50 - a.P50
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound*a.P50:
		return verdictRegressed
	case worse < 0 && -worse > a.P75-a.P25:
		return verdictImproved
	}
	return verdictUnchanged
}

func readLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// compareFiles prints one row per (workload, seed, end-to-end metric)
// of two ledgers: both medians with their quartiles, the ratio B/A with
// its base, the bound, and the verdict. It returns the exit code: 1 if
// any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readLedger(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	b, err := readLedger(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s (%s, %s)\nB: %s (%s, %s)\n", pathA, a.Env.GitRev, a.Env.GoVersion, pathB, b.Env.GitRev, b.Env.GoVersion)
	fmt.Fprintf(w, "%-14s %4s %-16s %-36s %-36s %-26s %5s  %s\n",
		"workload", "seed", "metric", "A median [p25, p75] n", "B median [p25, p75] n", "B/A (base A)", "bound", "verdict")
	code := 0
	for _, ea := range a.Entries {
		for _, eb := range b.Entries {
			if ea.Workload != eb.Workload || ea.Seed != eb.Seed {
				continue
			}
			for _, d := range endToEnd {
				ma, mb := ea.EndToEnd[d.Name], eb.EndToEnd[d.Name]
				v := verdict(d, ma.Dist, mb.Dist)
				if v == verdictRegressed {
					code = 1
				}
				cell := func(m RunsMetric) string {
					return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", m.P50, m.P25, m.P75, m.N)
				}
				fmt.Fprintf(w, "%-14s %4d %-16s %-36s %-36s %-26s %4.0f%%  %s\n",
					ea.Workload, ea.Seed, d.Name, cell(ma), cell(mb),
					fmt.Sprintf("%.4f (A = %.6g %s)", mb.P50/ma.P50, ma.P50, ma.Unit), 100*d.Bound, v)
			}
		}
	}
	return code
}
