package sonata

import (
	"net/netip"
	"strconv"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/traffic"
)

func testFabric(t *testing.T, leaves, hosts int) *fabric.Fabric {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return fabric.New(topo, engine.NewSerial(), fabric.Options{})
}

func hhQuery(window time.Duration, threshold float64) Query {
	return Query{Window: window, Threshold: threshold}
}

// flow starts a TCP flow of rate packets per second between two hosts.
func flow(g *traffic.Generator, src, dst netip.Addr, size, rate int) (stop func()) {
	return g.StartFlow(traffic.FlowSpec{
		Src: src, Dst: dst, SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP,
		PacketSize: size, Rate: float64(rate),
	})
}

// hostPort returns the leaf and the detection key of the port a host
// attaches to.
func hostPort(t *testing.T, fab *fabric.Fabric, ip netip.Addr) (netmodel.SwitchID, string) {
	t.Helper()
	h, ok := fab.Topology().HostByIP(ip)
	if !ok {
		t.Fatalf("no host %v", ip)
	}
	port, _ := fab.HostPort(h.Leaf, h.ID)
	return h.Leaf, "port:" + strconv.Itoa(port)
}

func leafNamed(t *testing.T, fab *fabric.Fabric, name string) netmodel.SwitchID {
	t.Helper()
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == name {
			return sw.ID
		}
	}
	t.Fatalf("no switch %s", name)
	return 0
}

func TestWindowedDetection(t *testing.T) {
	fab := testFabric(t, 2, 2)
	sys := Deploy(fab, []Query{hhQuery(200*time.Millisecond, 100_000)}, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	// 2 MB/s >> threshold per window.
	defer flow(traffic.NewGenerator(fab, 1), fabric.HostIP(0, 0), fabric.HostIP(1, 0), 1000, 2000)()
	fab.Sched().RunFor(time.Second)
	dets := sys.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	// Detection cannot precede the first window boundary + batch delay.
	min := 200*time.Millisecond + DefaultBatchDelay
	if dets[0].At < min {
		t.Fatalf("detection at %v, cannot be before %v", dets[0].At, min)
	}
	leaf, key := hostPort(t, fab, fabric.HostIP(1, 0))
	for _, d := range dets {
		if d.Switch == leaf && d.Key == key {
			return
		}
	}
	t.Fatalf("detections %v miss the heavy destination's port %s", dets, key)
}

func TestDetectionLatencyDominatedByWindow(t *testing.T) {
	// Like the Tab. 4 comparison: with a multi-second window, latency
	// is in seconds even for an instantly recognizable HH.
	fab := testFabric(t, 2, 1)
	window := 3 * time.Second
	sys := Deploy(fab, []Query{hhQuery(window, 1000)}, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	defer flow(traffic.NewGenerator(fab, 2), fabric.HostIP(0, 0), fabric.HostIP(1, 0), 1500, 1000)()
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
	// with per-flow volume below threshold but combined above: each
	// ingress leaf sees only its own flow on its uplink, and Sonata
	// must NOT detect there (no cross-switch merge, §VII). The
	// destination leaf's host port carries the sum, which is exactly
	// the switch-local semantics.
	fab := testFabric(t, 3, 2)
	sys := Deploy(fab, []Query{hhQuery(200*time.Millisecond, 150_000)}, Config{AggregationFactor: 0.75})
	defer sys.Stop()
	g := traffic.NewGenerator(fab, 3)
	// Each flow: 0.5 MB/s -> 100 KB per 200 ms window < 150 KB
	// threshold; combined 200 KB > threshold.
	defer flow(g, fabric.HostIP(0, 0), fabric.HostIP(2, 0), 1000, 500)()
	defer flow(g, fabric.HostIP(1, 0), fabric.HostIP(2, 0), 1000, 500)()
	fab.Sched().RunFor(time.Second)
	leaf, key := hostPort(t, fab, fabric.HostIP(2, 0))
	merged := false
	for _, d := range sys.Detections() {
		if d.Switch == leaf && d.Key == key {
			merged = true
		}
		if d.Switch != leaf {
			t.Fatalf("ingress leaf %s detected a global HH it only saw half of", fab.Topology().Switch(d.Switch).Name)
		}
	}
	if !merged {
		t.Fatal("the destination leaf, which sees both flows, did not detect")
	}
}

func TestExportRespectsAggregationFactor(t *testing.T) {
	run := func(aggFactor float64) uint64 {
		fab := testFabric(t, 2, 4)
		sys := Deploy(fab, []Query{hhQuery(100*time.Millisecond, 1e12)}, Config{AggregationFactor: aggFactor})
		defer sys.Stop()
		// Four active host ports on leaf1 give each window four records
		// to aggregate.
		g := traffic.NewGenerator(fab, 4)
		for h := 0; h < 4; h++ {
			defer flow(g, fabric.HostIP(0, h), fabric.HostIP(1, h), 500, 250)()
		}
		fab.Sched().RunFor(time.Second)
		return fab.CentralNet.Bytes()
	}
	high := run(0.75)
	none := run(0)
	if high == 0 {
		t.Fatal("no export with aggregation")
	}
	if none <= high {
		t.Fatalf("aggregation factor did not shrink the export: %d (0.75) vs %d (0)", high, none)
	}
}

// TestPortKeyedWindow credits 5000 bytes to one leaf port in a window:
// a threshold of 5000 detects that port, and one of 5001 detects
// nothing, so the window's value is the port's exact byte count.
func TestPortKeyedWindow(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		detects   bool
	}{{5000, true}, {5001, false}} {
		fab := testFabric(t, 1, 2)
		leaf := leafNamed(t, fab, "leaf0")
		sys := Deploy(fab, []Query{hhQuery(time.Second, tc.threshold)}, Config{AggregationFactor: 0.75})
		sw := fab.Switch(leaf)
		if err := sw.CreditPort(1, 0, 0, 5, 5000); err != nil {
			t.Fatal(err)
		}
		if err := sw.CreditPort(2, 0, 0, 1, 10); err != nil {
			t.Fatal(err)
		}
		fab.Sched().RunFor(2 * time.Second)
		sys.Stop()
		dets := sys.Detections()
		if !tc.detects {
			if len(dets) != 0 {
				t.Fatalf("threshold %g: detections = %v, want none", tc.threshold, dets)
			}
			continue
		}
		if len(dets) != 1 || dets[0].Switch != leaf || dets[0].Key != "port:1" {
			t.Fatalf("threshold %g: detections = %v, want port:1 on leaf0", tc.threshold, dets)
		}
	}
}

func TestWindowExportsDeltaOnce(t *testing.T) {
	// A port credited in one window exports once; a quiet window puts
	// nothing on the collection network.
	fab := testFabric(t, 1, 2)
	sys := Deploy(fab, []Query{hhQuery(100*time.Millisecond, 1000)}, Config{})
	defer sys.Stop()
	if err := fab.Switch(leafNamed(t, fab, "leaf0")).CreditPort(1, 0, 0, 5, 5000); err != nil {
		t.Fatal(err)
	}
	fab.Sched().RunFor(150 * time.Millisecond)
	if got, want := fab.CentralNet.Bytes(), uint64(recordBytes); got != want || fab.CentralNet.Packets() != 1 {
		t.Fatalf("after the first window: %d bytes in %d packets, want one %d-byte record",
			got, fab.CentralNet.Packets(), want)
	}
	snap := fab.Meters.Snapshot()
	fab.Sched().RunFor(time.Second)
	if pps, bps := fab.Meters.Since(snap).CentralRate(); pps != 0 || bps != 0 {
		t.Fatalf("quiet windows exported %g pkt/s, %g B/s", pps, bps)
	}
	if dets := sys.Detections(); len(dets) != 1 {
		t.Fatalf("detections = %v, want the one window's record", dets)
	}
}

func TestStopSilences(t *testing.T) {
	fab := testFabric(t, 2, 1)
	sys := Deploy(fab, []Query{hhQuery(50*time.Millisecond, 1)}, Config{})
	// Traffic keeps flowing after Stop.
	defer flow(traffic.NewGenerator(fab, 5), fabric.HostIP(0, 0), fabric.HostIP(1, 0), 100, 1000)()
	fab.Sched().RunFor(500 * time.Millisecond)
	if len(sys.Detections()) == 0 {
		t.Fatal("no detections before stop")
	}
	sys.Stop()
	// Drain in-flight windows and micro-batches.
	fab.Sched().RunFor(2 * time.Second)
	n := len(sys.Detections())
	snap := fab.Meters.Snapshot()
	fab.Sched().RunFor(2 * time.Second)
	if got := len(sys.Detections()); got != n {
		t.Fatalf("detections kept flowing after Stop: %d -> %d", n, got)
	}
	if pps, _ := fab.Meters.Since(snap).CentralRate(); pps != 0 {
		t.Fatalf("exports kept flowing after Stop: %g pkt/s", pps)
	}
}
