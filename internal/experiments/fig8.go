package experiments

import (
	"fmt"
	"time"

	"farm/internal/netmodel"
	"farm/internal/soil"
)

// fig8SeedSource polls the whole port table at 1 ms — the heaviest
// legitimate statistics consumer.
const fig8SeedSource = `
machine BusHog {
  place all;
  poll stats = Poll { .ival = 1, .what = port ANY };
  long seen;
  state run {
    util (res) { if (res.vCPU >= 0.001) then { return 1; } }
    when (stats as recs) do { seen = seen + list_len(recs); }
  }
}
`

// Fig8Point is one (seeds, aggregation) bus measurement.
type Fig8Point struct {
	Seeds       int
	Utilization float64       // fraction of PCIe polling capacity used
	Backlog     time.Duration // request queue depth in time
	PollsServed uint64
}

// Fig8Result is the reproduced Fig. 8 (PCIe congestion).
type Fig8Result struct {
	NoAggregation   []Fig8Point
	WithAggregation []Fig8Point
	// ASICRatio is the PCIe:ASIC bandwidth ratio (the paper's 1:12500).
	ASICRatio float64
}

// fig8Ports is how many host ports each seed's port-table poll reads.
const fig8Ports = 8

// Fig8 deploys N seeds that all poll the full port table at 1 ms, with
// the soil's polling aggregation off and on, and measures PCIe bus
// utilization and backlog. Without aggregation the 8 Mbps bus saturates
// after a handful of seeds — the 1:12500 PCIe:ASIC gap of §VI-E-a;
// aggregation collapses the demand to a single poll stream. Each point
// measures a 2 s window.
func Fig8() (*Fig8Result, error) {
	res := &Fig8Result{
		// 8 Mbps polling vs 100 Gbps ASIC.
		ASICRatio: 100e9 / 8e6,
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		p, err := fig8Run(n, false)
		if err != nil {
			return nil, err
		}
		res.NoAggregation = append(res.NoAggregation, p)
		p, err = fig8Run(n, true)
		if err != nil {
			return nil, err
		}
		res.WithAggregation = append(res.WithAggregation, p)
	}
	return res, nil
}

// Table renders the result.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 8: PCIe bus congestion under statistics polling (1 ms, full port table)",
		Columns: []string{"seeds", "bus util", "backlog", "polls"},
	}
	for _, p := range r.NoAggregation {
		t.Rows = append(t.Rows, Row{Label: "no aggregation", Values: []string{
			fmt.Sprint(p.Seeds), fmtPercent(p.Utilization), fmtDuration(p.Backlog), fmt.Sprint(p.PollsServed),
		}})
	}
	for _, p := range r.WithAggregation {
		t.Rows = append(t.Rows, Row{Label: "soil aggregation", Values: []string{
			fmt.Sprint(p.Seeds), fmtPercent(p.Utilization), fmtDuration(p.Backlog), fmt.Sprint(p.PollsServed),
		}})
	}
	t.Rows = append(t.Rows, Row{Label: "ASIC headroom", Values: []string{
		"-", fmt.Sprintf("1:%.0f", r.ASICRatio), "-", "-"}})
	t.Notes = append(t.Notes, "PCIe polling capacity 8 Mbps vs 100 Gbps ASIC (paper's 1:12500)")
	return t
}

func fig8Run(seeds int, aggregate bool) (Fig8Point, error) {
	capacity := netmodel.Vector{
		netmodel.ResVCPU: 64, netmodel.ResRAM: 1 << 20,
		netmodel.ResTCAM: 1024, netmodel.ResPCIe: 64, netmodel.ResPoll: 1e9,
	}
	// Bus rate 0: the default 8 Mbps bus.
	loop, fab, s, err := newBenchRig(capacity, fig8Ports, 0, soil.Options{ExecModel: soil.Threads, Aggregation: aggregate})
	if err != nil {
		return Fig8Point{}, err
	}
	prep, err := prepareMachine(fig8SeedSource, "BusHog")
	if err != nil {
		return Fig8Point{}, err
	}
	alloc := netmodel.Vector{netmodel.ResVCPU: 0.001, netmodel.ResRAM: 1, netmodel.ResPoll: 1000}
	for i := 0; i < seeds; i++ {
		ref := soil.SeedRef{Task: fmt.Sprintf("t%d", i), Machine: "BusHog", Switch: "bench"}
		if err := s.DeployCompiled(ref, ref.ID(), prep, alloc); err != nil {
			return Fig8Point{}, err
		}
	}
	id := s.SwitchID()
	w := window(fab.Meters, loop, 100*time.Millisecond, 2*time.Second)
	return Fig8Point{
		Seeds:       seeds,
		Utilization: w.Utilization(id),
		Backlog:     fab.Driver(id).Bus().Backlog(),
		PollsServed: w.Switches[id].PollsIssued,
	}, nil
}
