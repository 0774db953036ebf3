package farm_test

import (
	"fmt"
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/traffic"
)

// benchHHSource is the change-report HH seed deployed on every switch in
// the engine benchmarks (the Fig. 4 monitoring pipeline); the poll
// interval is parameterized so several tasks can run staggered.
const benchHHSource = `
machine HHDelta%d {
  place all;
  poll pollStats = Poll { .ival = %d, .what = port ANY };
  external long threshold;
  list hitters;
  list reported;

  state observe {
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

// runHHPipeline drives the Fig. 4-style monitoring pipeline — bulk port
// load with churning heavy hitters, one HH seed per switch per task
// polling over the PCIe bus at 10, 11, ... ms, change reports to the
// central harvester — on topo for simFor of virtual time. It returns the
// central link's byte and message counts.
func runHHPipeline(tb testing.TB, eng engine.Scheduler, topo *netmodel.Topology, tasks int, simFor time.Duration) (bytes, msgs uint64) {
	tb.Helper()
	fab := fabric.New(topo, eng, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})
	for i := 0; i < tasks; i++ {
		machine := fmt.Sprintf("HHDelta%d", i)
		if err := sd.AddTask(seeder.TaskSpec{
			Name:   fmt.Sprintf("hh%d", i),
			Source: fmt.Sprintf(benchHHSource, i, 10+i),
			Externals: map[string]map[string]core.Value{
				machine: {"threshold": int64(400_000)},
			},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick:       10 * time.Millisecond,
		BaseRate:   1e5,
		HeavyRate:  5e7,
		HeavyRatio: 0.05,
		Churn:      2 * time.Second,
		Seed:       7,
	})
	defer w.Stop()
	eng.RunFor(simFor)
	return fab.CentralNet.Bytes(), fab.CentralNet.Packets()
}

// spineLeaf66 is the engine benchmarks' fabric: 2 spines + 64 leaves,
// 3072 host ports.
func spineLeaf66(tb testing.TB) *netmodel.Topology {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 2, Leaves: 64, HostsPerLeaf: 48})
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// fatTree500 is the large fabric: a k=20 fat-tree, 100 core + 200 agg +
// 200 edge switches and 800 host ports.
func fatTree500(tb testing.TB) *netmodel.Topology {
	topo, err := netmodel.FatTree(netmodel.FatTreeOptions{K: 20, HostsPerEdge: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// TestEngineLargeFabricPinned is the large-fabric gate: two HH tasks on
// the 500-switch fat-tree for 3 s must send exactly the central bytes
// and messages recorded when the serial engine became the only
// simulator (the sharded executor, with one shard per switch, matched
// them before it was removed).
func TestEngineLargeFabricPinned(t *testing.T) {
	const tasks, simFor = 2, 3 * time.Second
	const wantBytes, wantMsgs = 7306, 210
	topo := fatTree500(t)
	bytes, msgs := runHHPipeline(t, engine.NewSerial(), topo, tasks, simFor)
	if bytes != wantBytes || msgs != wantMsgs {
		t.Fatalf("sent %d central bytes in %d messages, want %d in %d", bytes, msgs, wantBytes, wantMsgs)
	}
	t.Logf("%d switches, %d HH seeds: %d central bytes in %d messages", topo.NumSwitches(), tasks*topo.NumSwitches(), bytes, msgs)
}

// BenchmarkEngineLargeFabric drives the 500-switch fat-tree pipeline.
// allocs/op here is the end-to-end event-loop allocation rate.
func BenchmarkEngineLargeFabric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bytes, _ := runHHPipeline(b, engine.NewSerial(), fatTree500(b), 2, time.Second)
		b.ReportMetric(float64(bytes), "central-bytes")
	}
}

// BenchmarkEngineSerial runs eight staggered HH tasks on the 66-switch
// fabric: 528 seeds polling at 10-17 ms.
func BenchmarkEngineSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bytes, _ := runHHPipeline(b, engine.NewSerial(), spineLeaf66(b), 8, 2*time.Second)
		b.ReportMetric(float64(bytes), "central-bytes")
	}
}
