package sonata

import (
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/traffic"
)

// keyByDstIP groups by destination address (classic HH query).
func keyByDstIP(p dataplane.Packet, _ int) string { return p.DstIP.String() }

func testFabric(t *testing.T, leaves, hosts int) *fabric.Fabric {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return fabric.New(topo, engine.NewSerial(), fabric.Options{})
}

func hhQuery(window time.Duration, threshold float64) Query {
	return Query{
		Name:      "hh",
		Filter:    dataplane.Filter{},
		Key:       keyByDstIP,
		Reduce:    SumBytes,
		Window:    window,
		Threshold: threshold,
	}
}

func TestWindowedDetection(t *testing.T) {
	fab := testFabric(t, 2, 2)
	sys := Deploy(fab, []Query{hhQuery(200*time.Millisecond, 100_000)}, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	g := traffic.NewGenerator(fab, 1)
	stop := g.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP,
		PacketSize: 1000, Rate: 2000, // 2 MB/s >> threshold per window
	})
	defer stop()
	fab.Sched().RunFor(time.Second)
	dets := sys.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	d := dets[0]
	if d.Key != fabric.HostIP(1, 0).String() {
		t.Fatalf("detected key %q, want the heavy destination", d.Key)
	}
	// Detection cannot precede the first window boundary + batch delay.
	min := 200*time.Millisecond + DefaultBatchDelay
	if d.At < min {
		t.Fatalf("detection at %v, cannot be before %v", d.At, min)
	}
}

func TestDetectionLatencyDominatedByWindow(t *testing.T) {
	// Like the Tab. 4 comparison: with a multi-second window, latency
	// is in seconds even for an instantly recognizable HH.
	fab := testFabric(t, 2, 1)
	window := 3 * time.Second
	sys := Deploy(fab, []Query{hhQuery(window, 1000)}, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	g := traffic.NewGenerator(fab, 2)
	stop := g.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 9, DstPort: 80, Proto: dataplane.ProtoTCP,
		PacketSize: 1500, Rate: 1000,
	})
	defer stop()
	fab.Sched().RunFor(5 * time.Second)
	dets := sys.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	if dets[0].At < window {
		t.Fatalf("detection at %v before the window closed", dets[0].At)
	}
	if dets[0].At > window+time.Second {
		t.Fatalf("detection at %v, want within ~1s after the window", dets[0].At)
	}
}

func TestSwitchLocalOnly(t *testing.T) {
	// Two flows to the same destination, entering at different leaves
	// with per-flow volume below threshold but combined above: Sonata
	// must NOT detect (no cross-switch merge, §VII).
	fab := testFabric(t, 3, 2)
	sys := Deploy(fab, []Query{{
		Name: "hh", Key: keyByDstIP, Reduce: SumBytes,
		Window: 200 * time.Millisecond, Threshold: 150_000,
	}}, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	g := traffic.NewGenerator(fab, 3)
	// Each flow: 0.5 MB/s -> 100 KB per 200 ms window < 150 KB
	// threshold; combined 200 KB > threshold.
	// Use sources on distinct leaves so their ingress aggregation never
	// meets. Destination on leaf2; note the destination leaf sees BOTH
	// flows, so key the query by ingress instead for strictness... the
	// shared egress leaf legitimately sees the sum — which is exactly
	// the switch-local semantics. Assert no detection on the two
	// ingress leaves.
	stop1 := g.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(2, 0),
		SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP, PacketSize: 1000, Rate: 500,
	})
	defer stop1()
	stop2 := g.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(1, 0), Dst: fabric.HostIP(2, 0),
		SrcPort: 2, DstPort: 80, Proto: dataplane.ProtoTCP, PacketSize: 1000, Rate: 500,
	})
	defer stop2()
	fab.Sched().RunFor(time.Second)
	topo := fab.Topology()
	for _, d := range sys.Detections() {
		name := topo.Switch(d.Switch).Name
		if name == "leaf0" || name == "leaf1" {
			t.Fatalf("ingress leaf %s detected a global HH it only saw half of", name)
		}
	}
}

func TestExportRespectsAggregationFactor(t *testing.T) {
	run := func(aggFactor float64) uint64 {
		fab := testFabric(t, 2, 2)
		sys := Deploy(fab, []Query{hhQuery(100*time.Millisecond, 1e12)}, Config{AggregationFactor: aggFactor})
		defer sys.Stop()
		g := traffic.NewGenerator(fab, 4)
		stop := g.StartFlow(traffic.FlowSpec{
			Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
			SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP, PacketSize: 500, Rate: 1000,
		})
		defer stop()
		fab.Sched().RunFor(time.Second)
		return fab.CentralNet.Bytes()
	}
	high := run(0.75)
	none := run(0)
	if high == 0 || none == 0 {
		t.Fatalf("exports: agg=%d none=%d", high, none)
	}
	if none < high {
		t.Fatalf("aggregation factor increased export: %d (0.75) vs %d (0)", high, none)
	}
}

func TestIngestCounterWindow(t *testing.T) {
	fab := testFabric(t, 1, 1)
	q := Query{Name: "hh", Key: KeyByInPort, Reduce: SumBytes, Window: time.Second, Threshold: 1000}
	sys := Deploy(fab, nil, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	sys.IngestCounterWindow(q, 0, map[int]float64{1: 5000, 2: 10})
	fab.Sched().RunFor(time.Second)
	dets := sys.Detections()
	if len(dets) != 1 || dets[0].Key != "port:1" {
		t.Fatalf("detections = %v", dets)
	}
}

func TestStopSilences(t *testing.T) {
	fab := testFabric(t, 2, 1)
	sys := Deploy(fab, []Query{hhQuery(50*time.Millisecond, 1)}, Config{})
	g := traffic.NewGenerator(fab, 5)
	stop := g.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP, PacketSize: 100, Rate: 1000,
	})
	defer stop()
	fab.Sched().RunFor(500 * time.Millisecond)
	if len(sys.Detections()) == 0 {
		t.Fatal("no detections before stop")
	}
	sys.Stop()
	// Drain in-flight windows and micro-batches.
	fab.Sched().RunFor(2 * time.Second)
	n := len(sys.Detections())
	// Traffic keeps flowing, but no new windows may open.
	fab.Sched().RunFor(2 * time.Second)
	if got := len(sys.Detections()); got != n {
		t.Fatalf("detections kept flowing after Stop: %d -> %d", n, got)
	}
}
