package farm_test

import (
	"fmt"
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/traffic"
)

// runWorkloadScenario drives the full attack-scenario cocktail — SYN
// flood, port scan (stopped mid-run), super-spreader, DNS reflection,
// SSH brute force, Slowloris, plus a background flow per leaf — on a
// 2-spine/12-leaf fabric for simFor of virtual time. It returns the
// generator's per-ingress-leaf emission digests, which serial and
// sharded runs must reproduce byte for byte, the delivered-packet count,
// and centralShare, the fraction of executed events that ran on shard 0
// (1 on the serial engine, which is one shard).
func runWorkloadScenario(tb testing.TB, eng engine.Scheduler, simFor time.Duration) (digests map[netmodel.SwitchID]uint64, delivered uint64, centralShare float64) {
	tb.Helper()
	const leaves = 12
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: leaves, HostsPerLeaf: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fab := fabric.New(topo, eng, fabric.Options{})
	gen := traffic.NewGenerator(fab, 11)
	victim := fabric.HostIP(0, 0)
	stopScan := gen.PortScan(fabric.HostIP(1, 0), victim, 2000)
	stops := []func(){
		gen.SYNFlood(victim, 12, 6000),
		gen.SuperSpreader(fabric.HostIP(2, 1), 16, 3000),
		gen.DNSReflection(victim, 6, 3000),
		gen.SSHBruteForce(fabric.HostIP(3, 2), fabric.HostIP(0, 1), 500),
		gen.Slowloris(fabric.HostIP(4, 3), 16, 50),
	}
	for i := 0; i < leaves; i++ {
		stops = append(stops, gen.StartFlow(traffic.FlowSpec{
			Src: fabric.HostIP(i, 4), Dst: fabric.HostIP((i+1)%leaves, 4),
			SrcPort: uint16(10000 + i), DstPort: 80, PacketSize: 400, Rate: 800,
		}))
	}
	eng.RunFor(simFor / 2)
	stopScan()
	eng.RunFor(simFor - simFor/2)
	for _, s := range stops {
		s()
	}
	centralShare = 1
	if x, ok := eng.(*engine.Sharded); ok {
		counts := x.ShardEventCounts()
		var total uint64
		for _, c := range counts {
			total += c
		}
		centralShare = float64(counts[fabric.CentralShard]) / float64(total)
	}
	return gen.PerSwitchDigest(), fab.Delivered(), centralShare
}

// newWorkloadSharded is the sharded executor for runWorkloadScenario:
// one shard per switch (2 spines + 12 leaves).
func newWorkloadSharded(workers int, force bool) *engine.Sharded {
	return engine.NewSharded(engine.ShardedOptions{
		Shards:       14,
		Workers:      workers,
		Lookahead:    fabric.Options{}.MinCrossLatency(),
		ForceWorkers: force,
	})
}

// TestWorkloadShardedMatchesSerial is the traffic generator's
// determinism gate: the attack cocktail for 2 s on the serial engine and
// on 4 and 16 sharded workers forced on must emit byte-identical
// per-leaf digests and deliver the same packets, and the sharded runs
// must execute under half their events on the central shard — the
// scenarios emit from their ingress leaves, not from shard 0.
func TestWorkloadShardedMatchesSerial(t *testing.T) {
	const simFor = 2 * time.Second
	want, wantDelivered, _ := runWorkloadScenario(t, engine.NewSerial(), simFor)
	if len(want) == 0 || wantDelivered == 0 {
		t.Fatalf("serial run: %d leaves emitted, %d packets delivered", len(want), wantDelivered)
	}
	for _, workers := range []int{4, 16} {
		x := newWorkloadSharded(workers, true)
		got, delivered, share := runWorkloadScenario(t, x, simFor)
		x.Stop()
		// The lowest switch whose digest differs, or that only one run has.
		bad, diverged := netmodel.SwitchID(0), false
		for _, m := range []map[netmodel.SwitchID]uint64{want, got} {
			for id := range m {
				w, inWant := want[id]
				g, inGot := got[id]
				if (w != g || inWant != inGot) && (!diverged || id < bad) {
					bad, diverged = id, true
				}
			}
		}
		if diverged {
			t.Fatalf("%d workers: switch %d emission digest %016x, serial %016x", workers, bad, got[bad], want[bad])
		}
		if delivered != wantDelivered {
			t.Fatalf("%d workers: %d packets delivered, serial %d", workers, delivered, wantDelivered)
		}
		if share >= 0.5 {
			t.Fatalf("%d workers: central share %.3f, want < 0.5 (the workload serializes on shard 0)", workers, share)
		}
		t.Logf("%d workers: %d leaves, %d delivered, central share %.3f", workers, len(got), delivered, share)
	}
}

// BenchmarkWorkloadSharded compares the serial engine against the
// sharded executor on pure traffic generation. central-share is the
// fraction of executed events that ran on shard 0: the serial engine is
// one shard (share 1 by construction), while with per-leaf schedules
// the sharded runs push scenario emission out to the ingress leaves.
func BenchmarkWorkloadSharded(b *testing.B) {
	const simFor = time.Second
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, delivered, share := runWorkloadScenario(b, engine.NewSerial(), simFor)
			b.ReportMetric(float64(delivered), "delivered")
			b.ReportMetric(share, "central-share")
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("sharded/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := newWorkloadSharded(workers, false)
				_, delivered, share := runWorkloadScenario(b, x, simFor)
				x.Stop()
				b.ReportMetric(float64(delivered), "delivered")
				b.ReportMetric(share, "central-share")
			}
		})
	}
}
