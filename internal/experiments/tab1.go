package experiments

import (
	"fmt"
	"strings"

	"farm/internal/tasks"
)

// Tab1Row is one use case with its Almanac line counts.
type Tab1Row struct {
	Name        string
	Description string
	SeedLoC     int
}

// Tab1Result is the reproduced Tab. I (use cases implemented in FARM).
type Tab1Result struct {
	Rows []Tab1Row
}

// Tab1 counts the non-blank, non-comment Almanac lines of every
// catalogued use case (the paper's Tab. I reports seed/harvester LoC;
// our harvester logic is Go closures, so only seed LoC is tabulated).
func Tab1() *Tab1Result {
	res := &Tab1Result{}
	for _, d := range tasks.All() {
		loc := 0
		for _, ln := range strings.Split(d.Source, "\n") {
			ln = strings.TrimSpace(ln)
			if ln != "" && !strings.HasPrefix(ln, "//") {
				loc++
			}
		}
		res.Rows = append(res.Rows, Tab1Row{
			Name:        d.Name,
			Description: d.Description,
			SeedLoC:     loc,
		})
	}
	return res
}

// Table renders the result.
func (r *Tab1Result) Table() *Table {
	t := &Table{
		Title:   "Tab. I: M&M use cases implemented in Almanac",
		Columns: []string{"LoC", "description"},
	}
	total := 0
	for _, row := range r.Rows {
		total += row.SeedLoC
		t.Rows = append(t.Rows, Row{Label: row.Name, Values: []string{
			fmt.Sprint(row.SeedLoC), row.Description,
		}})
	}
	t.Rows = append(t.Rows, Row{Label: "total", Values: []string{fmt.Sprint(total), ""}})
	return t
}
