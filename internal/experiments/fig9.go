package experiments

import (
	"fmt"
	"time"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/soil"
)

// fig9SeedSource: all seeds poll the SAME subject so the soil can
// aggregate their requests.
const fig9SeedSource = `
machine SharedPoller {
  place all;
  poll stats = Poll { .ival = 10, .what = port ANY };
  long seen;
  state run {
    util (res) { if (res.vCPU >= 0.001) then { return 1; } }
    when (stats as recs) do { seen = seen + list_len(recs); }
  }
}
`

// Fig9Point is one configuration's CPU load at a seed count.
type Fig9Point struct {
	Seeds int
	Load  float64
}

// Fig9Result is the reproduced Fig. 9 (soil CPU cost of aggregation,
// threads vs processes).
type Fig9Result struct {
	Configs map[string][]Fig9Point
	Order   []string
}

// Fig9 measures the soil's CPU load for seeds sharing one polling
// subject, across {threads, processes} x {aggregation on, off}. The
// fan-out cost of aggregation is charged per subscriber; per-delivery
// context switches make it far more visible for process seeds, while
// thread seeds stay cheap in every configuration (§VI-E-b). In our
// accounting, skipping aggregation costs extra ASIC polls, so
// aggregation is a net CPU win as well as a bus win. Each point measures
// a 2 s window.
func Fig9() (*Fig9Result, error) {
	res := &Fig9Result{Configs: map[string][]Fig9Point{}}
	for _, mode := range []struct {
		label string
		opts  soil.Options
	}{
		{"threads + aggregation", soil.Options{ExecModel: soil.Threads, Aggregation: true}},
		{"threads, no aggregation", soil.Options{ExecModel: soil.Threads, Aggregation: false}},
		{"processes + aggregation", soil.Options{ExecModel: soil.Processes, Aggregation: true}},
		{"processes, no aggregation", soil.Options{ExecModel: soil.Processes, Aggregation: false}},
	} {
		res.Order = append(res.Order, mode.label)
		for _, n := range []int{1, 10, 25, 50, 100, 150} {
			p, err := fig9Run(n, mode.opts)
			if err != nil {
				return nil, err
			}
			res.Configs[mode.label] = append(res.Configs[mode.label], p)
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 9: soil CPU load — request aggregation, threads vs processes",
		Columns: []string{"seeds", "CPU load"},
	}
	for _, cfg := range r.Order {
		for _, p := range r.Configs[cfg] {
			t.Rows = append(t.Rows, Row{Label: cfg, Values: []string{fmt.Sprint(p.Seeds), fmtPercent(p.Load)}})
		}
	}
	t.Notes = append(t.Notes,
		"process seeds pay per-delivery context switches; thread seeds stay cheap in every configuration (§VI-E-b)",
		"without aggregation the soil also pays for N separate ASIC polls, so aggregation wins on CPU here too")
	return t
}

func fig9Run(seeds int, opts soil.Options) (Fig9Point, error) {
	capacity := netmodel.Vector{
		netmodel.ResVCPU: 64, netmodel.ResRAM: 1 << 20,
		netmodel.ResTCAM: 1024, netmodel.ResPCIe: 64, netmodel.ResPoll: 1e9,
	}
	loop, fab, s, err := newBenchRig(capacity, 16, 64*dataplane.DefaultPCIePollBytesPerSec, opts)
	if err != nil {
		return Fig9Point{}, err
	}
	prep, err := prepareMachine(fig9SeedSource, "SharedPoller")
	if err != nil {
		return Fig9Point{}, err
	}
	alloc := netmodel.Vector{netmodel.ResVCPU: 0.001, netmodel.ResRAM: 1, netmodel.ResPoll: 1000}
	for i := 0; i < seeds; i++ {
		ref := soil.SeedRef{Task: fmt.Sprintf("t%d", i), Machine: "SharedPoller", Switch: "bench"}
		if err := s.DeployCompiled(ref, ref.ID(), prep, alloc); err != nil {
			return Fig9Point{}, err
		}
	}
	w := window(fab.Meters, loop, 100*time.Millisecond, 2*time.Second)
	return Fig9Point{Seeds: seeds, Load: w.Load(s.SwitchID())}, nil
}
