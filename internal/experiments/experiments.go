// Package experiments regenerates every table and figure of the FARM
// paper's evaluation (§VI) on the emulated data center. Each experiment
// returns a structured result with a Render method that prints the same
// rows/series the paper reports; cmd/farm-bench and the repository-root
// benchmarks are thin wrappers around these functions.
//
// Absolute numbers differ from the paper (the substrate is an emulated
// fabric, not SAP's production hardware); the claims under test are the
// *shapes*: who wins, by roughly what factor, and where curves cross.
// EXPERIMENTS.md records paper-vs-measured values per experiment.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/metrics"
	"farm/internal/netmodel"
	"farm/internal/soil"
)

// Row is one line of a rendered result table.
type Row struct {
	Label  string
	Values []string
}

// Table is a generic experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		for i, v := range r.Values {
			if i+1 < len(widths) && len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	for i, c := range t.Columns {
		if i+1 < len(widths) && len(c) > widths[i+1] {
			widths[i+1] = len(c)
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Label)
		for i, v := range r.Values {
			fmt.Fprintf(&b, "%*s", widths[i+1]+2, v)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// newFabric builds the standard experiment fabric on the serial engine.
func newFabric(spines, leaves, hostsPerLeaf int) (*fabric.Fabric, engine.Scheduler, error) {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: spines, Leaves: leaves, HostsPerLeaf: hostsPerLeaf,
	})
	if err != nil {
		return nil, nil, err
	}
	loop := engine.NewSerial()
	return fabric.New(topo, loop, fabric.Options{}), loop, nil
}

// window runs loop for settle, then returns what meters count over the
// next d.
func window(meters *metrics.Set, loop engine.Scheduler, settle, d time.Duration) metrics.Snapshot {
	loop.RunFor(settle)
	prev := meters.Snapshot()
	loop.RunFor(d)
	return meters.Since(prev)
}

// newBenchRig builds the one-switch rig of Figs. 6, 8 and 9: a leaf
// named "bench" with the given capacity and hosts, the fabric over it
// with a PCIe bus of busBytesPerSec (0: the default), and the soil under
// test, with the given options, whose seeds' sends go nowhere.
func newBenchRig(capacity netmodel.Vector, hosts int, busBytesPerSec float64, opts soil.Options) (engine.Scheduler, *fabric.Fabric, *soil.Soil, error) {
	topo := netmodel.New()
	sw := topo.AddSwitch("bench", netmodel.Leaf, capacity)
	for i := 0; i < hosts; i++ {
		if _, err := topo.AddHost(sw, fabric.HostIP(0, i)); err != nil {
			return nil, nil, nil, err
		}
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{BusBytesPerSec: busBytesPerSec})
	s := soil.New(fab, sw, opts)
	s.SetSendFunc(func(soil.SeedRef, core.SendDest, core.Value) {})
	return loop, fab, s, nil
}

// prepareMachine compiles one machine of a source, which binds no
// externals, into what a soil deploys, once for however many seeds run
// it.
func prepareMachine(src, machine string) (*soil.Prepared, error) {
	prog, err := almanac.Parse(src)
	if err != nil {
		return nil, err
	}
	cm, err := almanac.CompileMachine(prog, machine)
	if err != nil {
		return nil, err
	}
	lp, err := core.Compile(cm)
	if err != nil {
		return nil, err
	}
	return soil.Prepare(lp, nil)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func fmtPercent(load float64) string { return fmt.Sprintf("%.0f%%", load*100) }
