package experiments

import (
	"time"

	"farm/internal/baselines/sflow"
	"farm/internal/baselines/sonata"
	"farm/internal/core"
	"farm/internal/fabric"
	"farm/internal/seeder"
	"farm/internal/traffic"
)

// farmChangeReportHH is the HH seed used for network-load measurements:
// like List. 2 but it only reports when the hitter set changes, which is
// what makes FARM's central traffic a function of the HH churn rate
// instead of the detection rate ("1 packet per minute for every 100
// additional ports", §VI-B-b).
const farmChangeReportHH = `
machine HHDelta {
  place all;
  poll pollStats = Poll { .ival = 10, .what = port ANY };
  external long threshold;
  list hitters;
  list reported;

  state observe {
    util (res) {
      if (res.vCPU >= 0.25 and res.RAM >= 64) then { return res.vCPU; }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (hitters <> reported) then {
        send hitters to harvester;
        reported = hitters;
      }
    }
  }
}
`

// Fig4Point is one (system, ports) measurement.
type Fig4Point struct {
	Ports       int
	PktPerSec   float64
	BytesPerSec float64
}

// Fig4Result is the reproduced Fig. 4 (network load toward the central
// components for HH detection).
type Fig4Result struct {
	Systems map[string][]Fig4Point // keyed by system label
	Order   []string
}

// Fig4 sweeps fabric sizes and measures central-link load for FARM,
// sFlow at 1 ms and 10 ms export, and Sonata with 75% aggregation. The
// production observations (§VI-B-b) are 1-10% heavy hitters changing up
// to once a minute; here 5% are heavy, and the churn is scaled to every
// 10 s at full scale and every 3 s at quick scale to keep runs short
// (see EXPERIMENTS.md). Each point measures a 20 s window at full scale,
// 8 s at quick scale.
func Fig4(full bool) (*Fig4Result, error) {
	portCounts, duration, churn := []int{48, 96, 240, 480}, 8*time.Second, 3*time.Second
	if full {
		portCounts, duration, churn = []int{96, 240, 480, 960, 1920}, 20*time.Second, 10*time.Second
	}
	res := &Fig4Result{
		Systems: map[string][]Fig4Point{},
		Order:   []string{"FARM", "sFlow 1ms", "sFlow 10ms", "Sonata (75% agg)"},
	}
	for _, ports := range portCounts {
		leaves := ports / 48
		if leaves < 1 {
			leaves = 1
		}
		hosts := ports / leaves
		if hosts > 250 {
			hosts = 250
		}

		farm, err := fig4FARM(leaves, hosts, duration, churn)
		if err != nil {
			return nil, err
		}
		res.Systems["FARM"] = append(res.Systems["FARM"], farm)

		for _, sf := range []struct {
			label string
			poll  time.Duration
		}{{"sFlow 1ms", time.Millisecond}, {"sFlow 10ms", 10 * time.Millisecond}} {
			p, err := fig4SFlow(leaves, hosts, sf.poll, duration, churn)
			if err != nil {
				return nil, err
			}
			res.Systems[sf.label] = append(res.Systems[sf.label], p)
		}

		p, err := fig4Sonata(leaves, hosts, duration, churn)
		if err != nil {
			return nil, err
		}
		res.Systems["Sonata (75% agg)"] = append(res.Systems["Sonata (75% agg)"], p)
	}
	return res, nil
}

// Table renders the result.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 4: network load toward central components vs. monitored ports",
		Columns: []string{"ports", "pkts/s", "bytes/s"},
	}
	for _, sys := range r.Order {
		for _, p := range r.Systems[sys] {
			t.Rows = append(t.Rows, Row{
				Label:  sys,
				Values: []string{fmtFloat(float64(p.Ports)), fmtFloat(p.PktPerSec), fmtFloat(p.BytesPerSec)},
			})
		}
	}
	t.Notes = append(t.Notes,
		"FARM reports only hitter-set changes; collector approaches report every interval",
		"HH ratio 5%, churn scaled to 10s (paper: <=1/min) to keep runs short")
	return t
}

func fig4Workload(fab *fabric.Fabric, churn time.Duration) *traffic.BulkWorkload {
	return traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick:       10 * time.Millisecond,
		BaseRate:   1e5,
		HeavyRate:  5e7,
		HeavyRatio: 0.05,
		Churn:      churn,
		Seed:       7,
	})
}

func fig4FARM(leaves, hosts int, duration, churn time.Duration) (Fig4Point, error) {
	fab, loop, err := newFabric(2, leaves, hosts)
	if err != nil {
		return Fig4Point{}, err
	}
	sd := seeder.New(fab, seeder.Options{})
	if err := sd.AddTask(seeder.TaskSpec{
		Name: "hh", Source: farmChangeReportHH,
		Externals: map[string]map[string]core.Value{"HHDelta": {"threshold": int64(400_000)}},
	}); err != nil {
		return Fig4Point{}, err
	}
	w := fig4Workload(fab, churn)
	defer w.Stop()
	pps, bps := window(fab.Meters, loop, time.Second, duration).CentralRate()
	return Fig4Point{Ports: leaves * hosts, PktPerSec: pps, BytesPerSec: bps}, nil
}

func fig4SFlow(leaves, hosts int, poll, duration, churn time.Duration) (Fig4Point, error) {
	fab, loop, err := newFabric(2, leaves, hosts)
	if err != nil {
		return Fig4Point{}, err
	}
	sys := sflow.Deploy(fab, sflow.Config{
		PollInterval:           poll,
		HHThresholdBytesPerSec: 10_000_000,
	})
	defer sys.Stop()
	w := fig4Workload(fab, churn)
	defer w.Stop()
	// sFlow runs are expensive at 1 ms; a shorter window suffices since
	// its load is strictly periodic.
	pps, bps := window(fab.Meters, loop, 200*time.Millisecond, duration/4).CentralRate()
	return Fig4Point{Ports: leaves * hosts, PktPerSec: pps, BytesPerSec: bps}, nil
}

func fig4Sonata(leaves, hosts int, duration, churn time.Duration) (Fig4Point, error) {
	fab, loop, err := newFabric(2, leaves, hosts)
	if err != nil {
		return Fig4Point{}, err
	}
	w := fig4Workload(fab, churn)
	defer w.Stop()
	// Window flushes carry per-port byte counts from every leaf.
	q := sonata.Query{Window: 3 * time.Second, Threshold: 1e12}
	defer sonata.Deploy(fab, []sonata.Query{q}, sonata.Config{AggregationFactor: 0.75}).Stop()
	pps, bps := window(fab.Meters, loop, time.Second, duration).CentralRate()
	return Fig4Point{Ports: leaves * hosts, PktPerSec: pps, BytesPerSec: bps}, nil
}
