package experiments

import (
	"fmt"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/metrics"
)

// Fig. 5's fixed setting: both systems deliver a 10 ms monitoring period
// (the paper's accuracy), and the sFlow agent samples 1 in 8 packets of a
// 2 Mpps line rate (a loaded 10G port mix).
const (
	fig5Accuracy     = 10 * time.Millisecond
	fig5TrafficPPS   = 2e6
	fig5SampleOneInN = 8
)

// Fig5Point is one (system, flows) CPU-load measurement.
type Fig5Point struct {
	Flows int
	Load  float64 // 1.0 = one core
}

// Fig5Result is the reproduced Fig. 5.
type Fig5Result struct {
	FARM  []Fig5Point
	SFlow []Fig5Point
}

// Fig5 measures switch CPU load while FARM and sFlow monitor an
// increasing number of flow rules at equal (10 ms) accuracy. This is a
// switch-local microbenchmark on the emulated ASIC and cost model: FARM
// polls the rules' counters and analyzes the deltas on the switch;
// sFlow samples packets at line rate and forwards everything (plus a
// periodic counter export), doing no local filtering (§VI-B-c). The full
// sweep is the paper's 100..10000 flows over a 5 s window; quick scale
// takes four of its points over 2 s.
func Fig5(full bool) (*Fig5Result, error) {
	flowCounts, duration := []int{100, 1000, 5000, 10000}, 2*time.Second
	if full {
		flowCounts, duration = []int{100, 500, 1000, 2500, 5000, 10000}, 5*time.Second
	}
	res := &Fig5Result{}
	for _, flows := range flowCounts {
		farm, err := fig5FARM(flows, duration)
		if err != nil {
			return nil, err
		}
		res.FARM = append(res.FARM, Fig5Point{Flows: flows, Load: farm})
		sf := fig5SFlow(duration)
		res.SFlow = append(res.SFlow, Fig5Point{Flows: flows, Load: sf})
	}
	return res, nil
}

// Table renders the result.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 5: switch CPU load vs. monitored flows (10 ms accuracy)",
		Columns: []string{"flows", "CPU load"},
	}
	for _, p := range r.FARM {
		t.Rows = append(t.Rows, Row{Label: "FARM", Values: []string{fmt.Sprint(p.Flows), fmtPercent(p.Load)}})
	}
	for _, p := range r.SFlow {
		t.Rows = append(t.Rows, Row{Label: "sFlow", Values: []string{fmt.Sprint(p.Flows), fmtPercent(p.Load)}})
	}
	t.Notes = append(t.Notes,
		"FARM load grows with analyzed flows; sFlow's line-rate sampling keeps it flat and high")
	return t
}

// fig5CompareCost is the per-flow delta+threshold comparison a FARM
// seed performs in place of exporting the record.
const fig5CompareCost = 100 * time.Nanosecond

// fig5FARM: a seed polls `flows` rule counters every fig5Accuracy period
// and analyzes the deltas locally (threshold compare per rule).
func fig5FARM(flows int, duration time.Duration) (float64, error) {
	loop := engine.NewSerial()
	meters := metrics.New(loop, 1)
	sw := dataplane.NewSwitch("bench", 8, flows+8, &meters.Switches[0])
	bus := dataplane.NewBus(loop, 256*dataplane.DefaultPCIePollBytesPerSec)
	cpu := &meters.Switches[0].CPU

	filters := make([]dataplane.Filter, flows)
	for i := range filters {
		filters[i] = dataplane.Filter{DstPort: uint16(i%60000 + 1)}
		if err := sw.TCAM().AddRule(dataplane.Rule{Priority: 1, Filter: filters[i], Action: dataplane.ActCount}); err != nil {
			return 0, fmt.Errorf("experiments: fig5: %w", err)
		}
	}
	// Background traffic credits the rules.
	loop.Every(fig5Accuracy, func() {
		for i := range filters {
			sw.CreditRule(filters[i], 10, 10_000)
		}
	})
	prev := make([]dataplane.RuleStats, flows)
	loop.Every(fig5Accuracy, func() {
		// The soil aggregates the seed's rule polls into one bulk bus
		// transfer per interval (§II-B-b); analysis happens in place.
		cpu.Charge(metrics.CostPollIssue + metrics.CostHandlerDispatch)
		bus.Request(16+48*len(filters), func(time.Duration) {
			for i := range filters {
				st, ok := sw.TCAM().Stats(filters[i])
				if !ok {
					continue
				}
				cpu.Charge(metrics.CostPollPerRecord + fig5CompareCost)
				prev[i] = st
			}
		})
	})
	return window(meters, loop, 200*time.Millisecond, duration).Load(0), nil
}

// fig5SFlow: the agent samples 1-in-N packets of line-rate traffic
// (cost independent of the flow count) and exports every rule counter
// unfiltered each period (serialize + ship, no analysis).
func fig5SFlow(duration time.Duration) float64 {
	loop := engine.NewSerial()
	meters := metrics.New(loop, 1)
	cpu := &meters.Switches[0].CPU
	samplesPerSec := fig5TrafficPPS / fig5SampleOneInN

	// Sampling+forwarding, charged in 1 ms batches.
	loop.Every(time.Millisecond, func() {
		n := samplesPerSec / 1000
		cpu.Charge(time.Duration(n * float64(metrics.CostSampleProcess+128*metrics.CostSerializePerByte)))
	})
	// Periodic per-port counter export (independent of the flow count:
	// sFlow exports interface counters, it does not track flows).
	loop.Every(fig5Accuracy, func() {
		cpu.Charge(metrics.CostPollIssue)
		cpu.Charge(48 * (metrics.CostPollPerRecord + 88*metrics.CostSerializePerByte))
	})
	return window(meters, loop, 200*time.Millisecond, duration).Load(0)
}
