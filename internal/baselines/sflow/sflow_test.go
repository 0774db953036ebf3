package sflow

import (
	"testing"
	"time"

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

func TestDetectsHeavyHitter(t *testing.T) {
	fab := testFabric(t, 2, 2)
	sys := Deploy(fab, Config{
		PollInterval:           10 * time.Millisecond,
		HHThresholdBytesPerSec: 1e7,
	})
	defer sys.Stop()
	w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: time.Millisecond, BaseRate: 1e5, HeavyRate: 1e8,
		HeavyRatio: 0.25, Seed: 1,
	})
	defer w.Stop()
	fab.Sched().RunFor(500 * time.Millisecond)
	dets := sys.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	heavy := w.HeavyPorts()
	found := false
	for _, d := range dets {
		for _, h := range heavy {
			if d.Switch == h.Switch && d.Port == h.Port {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("detections %v do not include a true heavy port %v", dets, heavy)
	}
}

func TestNoFalsePositivesWithoutHeavy(t *testing.T) {
	fab := testFabric(t, 2, 2)
	sys := Deploy(fab, Config{
		PollInterval:           10 * time.Millisecond,
		HHThresholdBytesPerSec: 1e7,
	})
	defer sys.Stop()
	w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: time.Millisecond, BaseRate: 1e5, HeavyRate: 1e8,
		HeavyRatio: 0, Seed: 1,
	})
	defer w.Stop()
	fab.Sched().RunFor(500 * time.Millisecond)
	if dets := sys.Detections(); len(dets) != 0 {
		t.Fatalf("false positives: %v", dets)
	}
}

// The collection-centric signature: central traffic grows linearly with
// the number of ports, independent of whether anything interesting
// happens.
func TestCentralLoadScalesWithPorts(t *testing.T) {
	load := func(leaves, hosts int) float64 {
		fab := testFabric(t, leaves, hosts)
		sys := Deploy(fab, Config{
			PollInterval:           10 * time.Millisecond,
			HHThresholdBytesPerSec: 1e12, // nothing detected: pure overhead
		})
		defer sys.Stop()
		snap := fab.Meters.Snapshot()
		fab.Sched().RunFor(time.Second)
		_, bps := fab.Meters.Since(snap).CentralRate()
		return bps
	}
	small := load(2, 2)
	big := load(8, 8)
	if small <= 0 {
		t.Fatal("no collector traffic")
	}
	// 4x leaves x 4x hosts ≈ >4x the exported counters.
	if big < small*3 {
		t.Fatalf("central load small=%g big=%g: not scaling with ports", small, big)
	}
}

func TestDetectionLatencyBoundedByIntervals(t *testing.T) {
	fab := testFabric(t, 2, 1)
	sys := Deploy(fab, Config{
		PollInterval:           100 * time.Millisecond,
		HHThresholdBytesPerSec: 1e6,
	})
	defer sys.Stop()
	loop := fab.Sched()
	loop.RunFor(300 * time.Millisecond) // baseline counters exist
	start := loop.Now()
	// Sudden heavy flow.
	var leaf netmodel.SwitchID
	for _, sw := range fab.Topology().Switches() {
		if sw.Name == "leaf0" {
			leaf = sw.ID
		}
	}
	hot := loop.Every(time.Millisecond, func() {
		_ = fab.Switch(leaf).CreditPort(1, 0, 0, 100, 1_000_000)
	})
	defer hot.Stop()
	loop.RunFor(time.Second)
	dets := sys.Detections()
	if len(dets) == 0 {
		t.Fatal("no detection")
	}
	latency := dets[0].At - start
	// Detection requires two polls (rate needs a delta) plus the
	// analysis tick: with a 100 ms period expect 100-400 ms — an order
	// of magnitude above FARM's switch-local detection.
	if latency < 50*time.Millisecond || latency > 500*time.Millisecond {
		t.Fatalf("latency = %v, want ~100-400ms for 100ms polling", latency)
	}
}
