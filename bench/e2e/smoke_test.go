package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

func names(decls []metricDecl) []string {
	var out []string
	for _, d := range decls {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(r *Result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// smoke runs the shortest run of a workload: one unit (one plain and
// one traced when tracing) on the simulations, eight rounds on
// control-churn.
func smoke(t *testing.T, workload string, traced bool) *Result {
	t.Helper()
	var r *Result
	if spec, ok := simSpecByName(workload); ok {
		r = runSim(spec, defaultSeed, 0, traced, "")
	} else {
		r = runControlChurn(defaultSeed, 1, traced)
	}
	if !r.Correct || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, r.Correct, r.Attempted, r.Failed, r.Failures)
	}
	want := names(endToEnd)
	if traced {
		want = names(perLayer)
	}
	if got := emitted(r); !slices.Equal(got, want) {
		t.Fatalf("%s: emitted metrics %v, declared %v", workload, got, want)
	}
	return r
}

// Every end-to-end metric is reported, and above zero, on every
// workload.
func TestEndToEndSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			r := smoke(t, w, false)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}

func expect(t *testing.T, r *Result, nonZero, zero []string) {
	t.Helper()
	for _, name := range nonZero {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s: %s = %v, want above zero", r.Workload, name, r.Metrics[name].Value)
		}
	}
	for _, name := range zero {
		if r.Metrics[name].Value != 0 {
			t.Errorf("%s: %s = %v, want zero", r.Workload, name, r.Metrics[name].Value)
		}
	}
}

// The layers a workload is built to exercise do work, and the ones it
// is built to bypass do none.
func TestPacketStormSmoke(t *testing.T) {
	expect(t, smoke(t, "packet-storm", true),
		[]string{"engine.events", "traffic.events", "traffic.packets_emitted", "fabric.events", "fabric.delivered", "dataplane.cache_hit_ratio"},
		[]string{"soil.polls_issued", "soil.events", "dataplane.events", "core.seeds", "harvest.reports", "dataplane.tcam_rules", "fabric.central_bytes"})
}

func TestPollFabricSmoke(t *testing.T) {
	expect(t, smoke(t, "poll-fabric", true),
		[]string{"engine.events", "soil.events", "soil.polls_issued", "soil.polls_delivered", "dataplane.events", "dataplane.pcie_util", "core.seeds", "fabric.central_bytes", "harvest.reports"},
		[]string{"fabric.delivered", "traffic.packets_emitted", "dataplane.cache_hit_ratio"})
}

func TestCatalogueMixSmoke(t *testing.T) {
	expect(t, smoke(t, "catalogue-mix", true),
		[]string{"engine.events", "traffic.events", "fabric.events", "fabric.delivered", "dataplane.events", "dataplane.tcam_rules", "soil.events", "soil.polls_delivered", "soil.probes_delivered", "core.seeds", "harvest.reports", "fabric.central_bytes"},
		nil)
}

func TestControlChurnSmoke(t *testing.T) {
	r := smoke(t, churnName, true)
	expect(t, r,
		[]string{"fleet.op_ms_p50", "fleet.submit_ms_p50", "fleet.retire_ms_p50", "fleet.status_ms_p50", "fleet.takeover_ms", "fleet.audit_entries", "seeder.add_ms_p50", "seeder.remove_ms_p50", "transport.ping_ms_p50", "transport.bus_published", "core.seeds"},
		[]string{"fabric.delivered", "engine.events"})
	if got := r.Metrics["fleet.takeovers"].Value; got != 1 {
		t.Errorf("takeovers = %v, want exactly 1", got)
	}
}

// BENCHMARK.json and the code declare the same workloads, metrics,
// units, directions, bounds and run length.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, workloadNames()) {
		t.Errorf("workloads %v, the harness has %v", workloads, workloadNames())
	}
	check := func(kind string, got []metric, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
