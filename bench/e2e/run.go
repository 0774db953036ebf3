package main

import (
	"fmt"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/tasks"
)

// Result is one run of one workload in one process.
type Result struct {
	Workload  string
	Seed      int64
	Seconds   int
	Traced    bool
	Correct   bool
	Attempted int
	Failed    int
	Failures  []string // why ops failed, the first few
	Metrics   map[string]Metric
	decls     []metricDecl // the metrics in the order they are printed
}

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	// The first few reasons say what broke; a thousand copies do not.
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// maxBrokenUnits stops a run whose units keep failing: identical units
// that fail, fail every time.
const maxBrokenUnits = 3

// maxUnits caps the units of a run at 6 per 5 seconds of --seconds (30
// at the default 25), under what this sandbox completes (36 to 60) even
// in a slow phase.
// The process keeps some memory per unit ever built (core's lowerCache
// never evicts a compiled machine), so a run's heap, GC pressure and
// peak RSS depend on how many units it held: with the count fixed, code
// that gets faster finishes sooner instead of building more units and
// reporting a larger RSS. On a slower host the time budget still rules.
func maxUnits(seconds int) int { return max(2, seconds*6/5) }

// runSim runs units of one simulation workload until maxUnits are done
// or the time budget is spent. A plain run reports the end-to-end
// metrics; a traced run alternates plain and traced units and reports
// the per-layer table; traceOut, when set, receives the first traced
// unit's spans.
func runSim(spec simSpec, seed int64, seconds int, traced bool, traceOut string) *Result {
	res := &Result{Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()

	var tr *tracer
	if traced {
		tr = &tracer{wantSpans: traceOut != ""}
	}
	var plain, withTrace []unitSample
	var ref *counts
	var longest time.Duration
	// Units are never cut short: stop when the next one would not fit,
	// but always run one (two when tracing: one of each kind).
	minUnits := 1
	if traced {
		minUnits = 2
	}
	for i := 0; ; i++ {
		if i >= minUnits && (i >= maxUnits(seconds) || time.Since(start)+longest > budget) {
			break
		}
		var unitTracer *tracer
		if traced && i%2 == 1 {
			unitTracer = tr
		}
		u0 := time.Now()
		s, err := runUnit(spec, seed, unitTracer)
		if d := time.Since(u0); d > longest {
			longest = d
		}
		res.Attempted++
		if err != nil {
			res.fail("unit %d: %v", i, err)
			if res.Failed >= maxBrokenUnits {
				break
			}
			continue
		}
		// Units are identical, so every count and digest must equal the
		// first unit's, traced or not.
		if ref == nil {
			c := s.Counts
			ref = &c
		} else if s.Counts != *ref {
			res.fail("unit %d: counts differ from unit 0: %+v != %+v", i, s.Counts, *ref)
			continue
		}
		if unitTracer != nil {
			withTrace = append(withTrace, s)
		} else {
			plain = append(plain, s)
		}
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		res.fail("no unit completed")
		res.finish(newMetricSet(nil))
		return res
	}

	virtual := spec.window.Seconds()
	col := func(units []unitSample, f func(unitSample) float64) []float64 {
		xs := make([]float64, len(units))
		for i, u := range units {
			xs[i] = f(u)
		}
		return xs
	}
	wallPerUnit := col(plain, func(u unitSample) float64 { return u.WallS / virtual })

	if !traced {
		m := newMetricSet(endToEnd)
		m.setDist("setup_s", col(plain, func(u unitSample) float64 { return u.SetupS }))
		m.setDist("wall_s_per_unit", wallPerUnit)
		m.setDist("cpu_s_per_unit", col(plain, func(u unitSample) float64 { return u.CPUS / virtual }))
		m.setDist("allocs_per_unit", col(plain, func(u unitSample) float64 { return float64(u.Allocs) / virtual }))
		m.set("peak_rss_mb", peakRSSMB())
		res.finish(m)
		return res
	}

	if traceOut != "" {
		if err := writeChromeTrace(traceOut, withTrace[0].Trace.Spans); err != nil {
			res.fail("write trace: %v", err)
		}
	}

	m := newMetricSet(perLayer)
	c := *ref
	nTraced := float64(len(withTrace))
	for i, layer := range layers {
		if _, ok := m.values[layer+".span_s"]; ok {
			m.set(layer+".events", float64(withTrace[0].Trace.Events[i]))
			m.setDist(layer+".span_s", col(withTrace, func(u unitSample) float64 { return u.Trace.SpanS[i] }))
		} else if withTrace[0].Trace.Events[i] != 0 {
			// A layer the table gives no span row to scheduled events:
			// the sum of spans would silently miss them.
			res.fail("layer %s fired %d events but has no span metric", layer, withTrace[0].Trace.Events[i])
		}
		m.set(layer+".cpu_s", tr.window.folded.Layer[i]/nTraced)
		if _, ok := m.values[layer+".setup_cpu_s"]; ok {
			m.set(layer+".setup_cpu_s", tr.setup.folded.Layer[i]/nTraced)
		}
	}
	var events uint64
	for _, n := range withTrace[0].Trace.Events {
		events += n
	}
	// Every traced unit must have fired the same callbacks.
	for _, u := range withTrace[1:] {
		for i, n := range u.Trace.Events {
			if n != withTrace[0].Trace.Events[i] {
				res.fail("traced units disagree on %s.events: %d != %d", layers[i], n, withTrace[0].Trace.Events[i])
			}
		}
	}
	m.set("engine.events", float64(events))
	m.setDist("engine.self_s", col(withTrace, func(u unitSample) float64 { return u.Trace.SelfS }))

	// Modelled busy time over virtual time, averaged over the switches.
	switchSeconds := virtual * float64(c.Switches)
	m.set("dataplane.pcie_util", c.BusBusy.Seconds()/switchSeconds)
	m.set("soil.cpu_load", c.CPUBusy.Seconds()/switchSeconds)
	m.set("traffic.packets_emitted", float64(c.Emitted))
	m.set("fabric.delivered", float64(c.Delivered))
	m.set("fabric.dropped", float64(c.Dropped))
	m.set("fabric.central_msgs", float64(c.CentralMsgs))
	m.set("fabric.central_bytes", float64(c.CentralBytes))
	if probes := c.CacheHits + c.CacheMisses; probes > 0 {
		m.set("dataplane.cache_hit_ratio", float64(c.CacheHits)/float64(probes))
	}
	m.set("dataplane.tcam_rules", float64(c.TCAMRules))
	m.set("dataplane.sample_drops", float64(c.SampleDrops))
	m.set("soil.polls_issued", float64(c.PollsIssued))
	m.set("soil.polls_delivered", float64(c.PollsDelivered))
	m.set("soil.probes_delivered", float64(c.Probes))
	m.set("core.seeds", float64(c.Seeds))
	m.set("seeder.migrations", float64(c.Migrations))
	m.set("harvest.reports", float64(c.Reports))

	m.set("runtime.gc_cpu_s", tr.window.folded.GC/nTraced)
	m.setDist("runtime.gc_cycles", col(plain, func(u unitSample) float64 { return float64(u.GCCycles) }))
	m.setDist("runtime.alloc_mb", col(plain, func(u unitSample) float64 { return u.AllocMB }))
	m.setDist("runtime.heap_live_mb", col(plain, func(u unitSample) float64 { return u.HeapLiveMB }))

	m.set("almanac.compile_ms_p50", compileMSp50())
	m.set("harness.units", float64(len(plain)+len(withTrace)))
	m.set("harness.unit_iqr_ratio", summarize(wallPerUnit).iqrRatio())
	m.set("harness.trace_overhead_ratio",
		median(col(withTrace, func(u unitSample) float64 { return u.WallS }))/
			median(col(plain, func(u unitSample) float64 { return u.WallS })))
	m.set("harness.profile_samples", float64(tr.window.folded.Samples))
	m.setDist("harness.build_s", col(plain, func(u unitSample) float64 { return u.BuildS }))
	m.set("harness.other_cpu_s", tr.window.folded.Other/nTraced)
	m.set("harness.process_cpu_s", tr.windowCPUS/nTraced)
	res.finish(m)
	return res
}

// compileMSp50 times Parse + CompileMachine + Lower for every machine
// of every catalogue task, directly, and returns the median per task.
func compileMSp50() float64 {
	var ms []float64
	for _, d := range tasks.All() {
		t0 := time.Now()
		prog, err := almanac.Parse(d.Source)
		if err != nil {
			continue
		}
		names := d.Machines
		if names == nil {
			for _, mc := range prog.Machines {
				names = append(names, mc.Name)
			}
		}
		for _, name := range names {
			if cm, err := almanac.CompileMachine(prog, name); err == nil {
				_, _ = almanac.Lower(cm, core.BuiltinNames())
			}
		}
		ms = append(ms, msSince(t0))
	}
	return median(ms)
}

// finish freezes a metric set into the result.
func (r *Result) finish(m *metricSet) {
	r.decls = m.decls
	r.Metrics = m.values
	r.Correct = r.Failed == 0
}
