package main

// metricDecl declares one metric of the ledger. BENCHMARK.json carries
// the same names, units and directions; a test keeps the two equal.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound, on end-to-end metrics, is the share of the parent's median
	// by which the metric may get worse before a change is a regression.
	Bound float64
	// Exact marks a count that identical inputs must reproduce to the
	// last digit on the simulation workloads, whose clock is virtual:
	// --aa fails when two sets of runs disagree on one. (On control-churn
	// the same counters follow the wall clock.)
	Exact bool
}

// endToEnd are the metrics a user of the system sees. "Unit" is one
// virtual second on the simulation workloads and one RPC op on
// control-churn; every value is the median over the units of a run.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s_per_unit", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_unit", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_unit", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, reported by --trace 1.
// Counts and times are per unit (per timed window on the simulation
// workloads, per op on control-churn) unless the name says otherwise.
var perLayer = []metricDecl{
	{Name: "engine.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.self_s", Unit: "s", Better: "lower"},
	{Name: "engine.cpu_s", Unit: "s", Better: "lower"},

	{Name: "traffic.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "traffic.span_s", Unit: "s", Better: "lower"},
	{Name: "traffic.cpu_s", Unit: "s", Better: "lower"},
	{Name: "traffic.packets_emitted", Unit: "count", Better: "higher", Exact: true},

	{Name: "netmodel.cpu_s", Unit: "s", Better: "lower"},
	{Name: "netmodel.setup_cpu_s", Unit: "s", Better: "lower"},

	{Name: "fabric.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.span_s", Unit: "s", Better: "lower"},
	{Name: "fabric.cpu_s", Unit: "s", Better: "lower"},
	{Name: "fabric.delivered", Unit: "count", Better: "higher", Exact: true},
	{Name: "fabric.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.central_msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.central_bytes", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "dataplane.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataplane.span_s", Unit: "s", Better: "lower"},
	{Name: "dataplane.cpu_s", Unit: "s", Better: "lower"},
	{Name: "dataplane.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "dataplane.tcam_rules", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataplane.pcie_util", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "dataplane.sample_drops", Unit: "count", Better: "lower", Exact: true},

	{Name: "soil.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "soil.span_s", Unit: "s", Better: "lower"},
	{Name: "soil.cpu_s", Unit: "s", Better: "lower"},
	{Name: "soil.polls_issued", Unit: "count", Better: "lower", Exact: true},
	{Name: "soil.polls_delivered", Unit: "count", Better: "higher", Exact: true},
	{Name: "soil.probes_delivered", Unit: "count", Better: "higher", Exact: true},
	{Name: "soil.cpu_load", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "core.cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.seeds", Unit: "count", Better: "higher", Exact: true},

	{Name: "almanac.cpu_s", Unit: "s", Better: "lower"},
	{Name: "almanac.setup_cpu_s", Unit: "s", Better: "lower"},
	{Name: "almanac.compile_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "placement.cpu_s", Unit: "s", Better: "lower"},
	{Name: "placement.setup_cpu_s", Unit: "s", Better: "lower"},

	{Name: "seeder.cpu_s", Unit: "s", Better: "lower"},
	{Name: "seeder.setup_cpu_s", Unit: "s", Better: "lower"},
	{Name: "seeder.add_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "seeder.remove_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "seeder.migrations", Unit: "count", Better: "lower"},

	{Name: "harvest.reports", Unit: "count", Better: "higher", Exact: true},
	{Name: "harvest.cpu_s", Unit: "s", Better: "lower"},

	{Name: "transport.cpu_s", Unit: "s", Better: "lower"},
	{Name: "transport.bus_published", Unit: "count", Better: "lower"},
	{Name: "transport.bus_coalesced", Unit: "count", Better: "higher"},
	{Name: "transport.bus_dropped", Unit: "count", Better: "lower"},
	{Name: "transport.ping_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "fleet.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "fleet.op_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "fleet.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "fleet.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.retire_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.takeover_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.takeovers", Unit: "count", Better: "lower"},
	{Name: "fleet.retried_ops", Unit: "count", Better: "lower"},
	{Name: "fleet.audit_entries", Unit: "count", Better: "lower"},
	{Name: "fleet.cpu_s", Unit: "s", Better: "lower"},

	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},

	{Name: "harness.units", Unit: "count", Better: "higher"},
	{Name: "harness.unit_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.profile_samples", Unit: "count", Better: "higher"},
	{Name: "harness.build_s", Unit: "s", Better: "lower"},
	{Name: "harness.other_cpu_s", Unit: "s", Better: "lower"},
	{Name: "harness.process_cpu_s", Unit: "s", Better: "lower"},
}

// Metric is one reported value. P25/P75/N describe the units or ops
// the value is the median of, where it is one.
type Metric struct {
	Value    float64
	Unit     string
	N        int
	P25, P75 float64
}

// metricSet collects values against a declaration list.
type metricSet struct {
	decls  []metricDecl
	values map[string]Metric
}

func newMetricSet(decls []metricDecl) *metricSet {
	m := &metricSet{decls: decls, values: map[string]Metric{}}
	for _, d := range decls {
		m.values[d.Name] = Metric{Unit: d.Unit}
	}
	return m
}

// set records a value; a name that was never declared is a harness bug.
func (m *metricSet) set(name string, v float64) {
	m.put(name, Metric{Value: v})
}

// setDist records the median of a distribution with its quartiles.
func (m *metricSet) setDist(name string, xs []float64) {
	d := summarize(xs)
	m.put(name, Metric{Value: d.P50, N: d.N, P25: d.P25, P75: d.P75})
}

func (m *metricSet) put(name string, v Metric) {
	cur, ok := m.values[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	v.Unit = cur.Unit
	m.values[name] = v
}
