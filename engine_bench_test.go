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
// central link's byte and message counts: serial and sharded runs must
// agree on both exactly.
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
// 200 edge switches and 800 host ports — the scale the shard-time
// priority queue, event pooling and batched barrier merge exist for.
func fatTree500(tb testing.TB) *netmodel.Topology {
	topo, err := netmodel.FatTree(netmodel.FatTreeOptions{K: 20, HostsPerEdge: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// TestEngineLargeFabricShardedMatchesSerial is the large-fabric
// determinism gate the executor is held to: two HH tasks on the
// 500-switch fat-tree for 3 s, on the serial engine and on the sharded
// executor with one shard per switch and four workers forced on (so the
// concurrent path runs, and -race sees it, on a one-CPU machine). The
// central byte and message counts must agree exactly.
func TestEngineLargeFabricShardedMatchesSerial(t *testing.T) {
	const tasks, simFor = 2, 3 * time.Second
	bytes, msgs := runHHPipeline(t, engine.NewSerial(), fatTree500(t), tasks, simFor)
	if msgs == 0 {
		t.Fatal("serial run sent nothing to the harvester")
	}
	topo := fatTree500(t)
	x := engine.NewSharded(engine.ShardedOptions{
		Shards:       topo.NumSwitches(),
		Workers:      4,
		Lookahead:    fabric.Options{}.MinCrossLatency(),
		ForceWorkers: true,
	})
	defer x.Stop()
	shBytes, shMsgs := runHHPipeline(t, x, topo, tasks, simFor)
	if shBytes != bytes || shMsgs != msgs {
		t.Fatalf("sharded run (4 workers) sent %d central bytes in %d messages, serial %d in %d",
			shBytes, shMsgs, bytes, msgs)
	}
	t.Logf("%d switches, %d HH seeds: %d central bytes in %d messages", topo.NumSwitches(), tasks*topo.NumSwitches(), bytes, msgs)
}

// BenchmarkEngineLargeFabric drives the 500-switch fat-tree pipeline on
// both engines. allocs/op here is the end-to-end event-loop allocation
// rate the pooling work targets; par-avail is the mean number of shards
// eligible per epoch (the speedup ceiling at this scale).
func BenchmarkEngineLargeFabric(b *testing.B) {
	const simFor = time.Second
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bytes, _ := runHHPipeline(b, engine.NewSerial(), fatTree500(b), 2, simFor)
			b.ReportMetric(float64(bytes), "central-bytes")
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x := engine.NewSharded(engine.ShardedOptions{
				Shards:    500,
				Workers:   4,
				Lookahead: fabric.Options{}.MinCrossLatency(),
			})
			bytes, _ := runHHPipeline(b, x, fatTree500(b), 2, simFor)
			epochs, runs := x.EpochStats()
			x.Stop()
			b.ReportMetric(float64(bytes), "central-bytes")
			b.ReportMetric(float64(runs)/float64(epochs), "par-avail")
		}
	})
}

// BenchmarkEngineSerial and BenchmarkEngineSharded run eight staggered
// HH tasks on the 66-switch fabric: 528 seeds polling at 10-17 ms.
const engineBenchSimTime = 2 * time.Second

func BenchmarkEngineSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bytes, _ := runHHPipeline(b, engine.NewSerial(), spineLeaf66(b), 8, engineBenchSimTime)
		b.ReportMetric(float64(bytes), "central-bytes")
	}
}

func BenchmarkEngineSharded(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := engine.NewSharded(engine.ShardedOptions{
					Shards:    66,
					Workers:   workers,
					Lookahead: fabric.Options{}.MinCrossLatency(),
				})
				bytes, _ := runHHPipeline(b, x, spineLeaf66(b), 8, engineBenchSimTime)
				epochs, runs := x.EpochStats()
				x.Stop()
				b.ReportMetric(float64(bytes), "central-bytes")
				// Mean shards eligible to run concurrently per epoch: the
				// speedup ceiling this workload offers, independent of the
				// host's core count.
				b.ReportMetric(float64(runs)/float64(epochs), "par-avail")
			}
		})
	}
}
