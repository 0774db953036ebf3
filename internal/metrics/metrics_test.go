package metrics

import (
	"testing"
	"time"

	"farm/internal/engine"
)

func TestCPUMeterLoad(t *testing.T) {
	loop := engine.NewSerial()
	m := NewCPUMeter(loop, 4)
	snap := m.Snapshot()
	loop.RunFor(time.Second)
	m.Charge(500 * time.Millisecond)
	if got := m.LoadSince(snap); got < 0.499 || got > 0.501 {
		t.Fatalf("load = %g, want 0.5", got)
	}
	if m.LoadSince(snap) > m.Cores() {
		t.Fatal("0.5 load should not saturate 4 cores")
	}
}

func TestCPUMeterSaturation(t *testing.T) {
	loop := engine.NewSerial()
	m := NewCPUMeter(loop, 2)
	snap := m.Snapshot()
	loop.RunFor(100 * time.Millisecond)
	m.Charge(300 * time.Millisecond) // demand 3x elapsed
	if got := m.LoadSince(snap); got < 2.99 || got > 3.01 {
		t.Fatalf("load = %g, want 3", got)
	}
	if m.LoadSince(snap) <= m.Cores() {
		t.Fatal("3.0 load should saturate 2 cores")
	}
}

func TestCPUMeterNegativeChargeIgnored(t *testing.T) {
	loop := engine.NewSerial()
	m := NewCPUMeter(loop, 1)
	m.Charge(-time.Second)
	if m.Busy() != 0 {
		t.Fatalf("busy = %v, want 0", m.Busy())
	}
}

func TestCPUMeterZeroElapsed(t *testing.T) {
	loop := engine.NewSerial()
	m := NewCPUMeter(loop, 1)
	snap := m.Snapshot()
	m.Charge(time.Millisecond)
	if got := m.LoadSince(snap); got != 0 {
		t.Fatalf("load with zero elapsed = %g, want 0", got)
	}
}

func TestNetMeterRates(t *testing.T) {
	loop := engine.NewSerial()
	m := NewNetMeter(loop)
	snap := m.Snapshot()
	m.Add(10, 1500)
	m.Add(5, 500)
	loop.RunFor(2 * time.Second)
	pps, bps := m.RateSince(snap)
	if pps != 7.5 {
		t.Fatalf("pps = %g, want 7.5", pps)
	}
	if bps != 1000 {
		t.Fatalf("bps = %g, want 1000", bps)
	}
	if m.Packets() != 15 || m.Bytes() != 2000 {
		t.Fatalf("totals = %d pkts, %d bytes", m.Packets(), m.Bytes())
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	costs := []time.Duration{
		CostPollIssue, CostPollPerRecord, CostHandlerDispatch, CostHandlerPerAction,
		CostSampleProcess, CostSerializePerByte, CostContextSwitch,
		CostAggregationPerSeed, CostMLIteration,
	}
	for i, c := range costs {
		if c <= 0 {
			t.Fatalf("cost %d is %v; every cost must be positive", i, c)
		}
	}
	if CostContextSwitch <= CostHandlerDispatch {
		t.Fatal("a process context switch must cost more than an inline dispatch")
	}
	if CostMLIteration <= CostHandlerDispatch {
		t.Fatal("an ML iteration must dominate a handler dispatch")
	}
}
