package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"farm/internal/engine"
)

func TestCPUMeterLoad(t *testing.T) {
	loop := engine.NewSerial()
	set := New(loop, 1)
	snap := set.Snapshot()
	loop.RunFor(time.Second)
	set.Switches[0].CPU.Charge(500 * time.Millisecond)
	w := set.Since(snap)
	if got := w.Load(0); got < 0.499 || got > 0.501 {
		t.Fatalf("load = %g, want 0.5", got)
	}
	if w.Load(0) > CPUCores {
		t.Fatal("0.5 load should not saturate 4 cores")
	}
}

func TestCPUMeterSaturation(t *testing.T) {
	loop := engine.NewSerial()
	set := New(loop, 1)
	snap := set.Snapshot()
	loop.RunFor(100 * time.Millisecond)
	set.Switches[0].CPU.Charge(500 * time.Millisecond) // demand 5x elapsed
	if got := set.Since(snap).Load(0); got < 4.99 || got > 5.01 || got <= CPUCores {
		t.Fatalf("load = %g, want 5, past %d cores", got, CPUCores)
	}
}

func TestCPUMeterNegativeChargeIgnored(t *testing.T) {
	var m CPUMeter
	m.Charge(-time.Second)
	if m.Busy() != 0 {
		t.Fatalf("busy = %v, want 0", m.Busy())
	}
}

func TestCPUMeterZeroElapsed(t *testing.T) {
	set := New(engine.NewSerial(), 1)
	snap := set.Snapshot()
	set.Switches[0].CPU.Charge(time.Millisecond)
	set.Switches[0].Bus.Busy = time.Millisecond
	set.CentralPackets = 1
	w := set.Since(snap)
	if pps, bps := w.CentralRate(); w.Load(0) != 0 || w.Utilization(0) != 0 || pps != 0 || bps != 0 {
		t.Fatalf("rates over a zero window = %g %g %g %g, want 0", w.Load(0), w.Utilization(0), pps, bps)
	}
}

func TestNetMeterRates(t *testing.T) {
	loop := engine.NewSerial()
	set := New(loop, 0)
	set.CentralPackets, set.CentralBytes = 3, 100
	snap := set.Snapshot()
	set.CentralPackets += 15
	set.CentralBytes += 2000
	loop.RunFor(2 * time.Second)
	pps, bps := set.Since(snap).CentralRate()
	if pps != 7.5 || bps != 1000 {
		t.Fatalf("rates = %g pkt/s, %g B/s, want 7.5 and 1000", pps, bps)
	}
	if set.Packets() != 18 || set.Bytes() != 2100 {
		t.Fatalf("totals = %d pkts, %d bytes", set.Packets(), set.Bytes())
	}
}

// counters calls visit with the path and value of every counter under
// v, a struct. A field of a kind it does not know fails the test: a
// meter is a count or a duration.
func counters(t *testing.T, v reflect.Value, path string, visit func(string, reflect.Value)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, p := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			counters(t, f, p+".", visit)
		case reflect.Uint64, reflect.Int64:
			visit(p, f)
		default:
			t.Fatalf("%s: a meter of kind %s", p, f.Kind())
		}
	}
}

func counterOf(f reflect.Value) uint64 {
	if f.Kind() == reflect.Int64 {
		return uint64(f.Int())
	}
	return f.Uint()
}

// setCounters sets every counter of every switch record and of the
// totals to a distinct value from base on, and returns them by path.
func setCounters(t *testing.T, set *Set, base uint64) map[string]uint64 {
	vals := map[string]uint64{}
	put := func(p string, f reflect.Value) {
		base++
		if f.Kind() == reflect.Int64 {
			f.SetInt(int64(base))
		} else {
			f.SetUint(base)
		}
		vals[p] = base
	}
	for i := range set.Switches {
		counters(t, reflect.ValueOf(&set.Switches[i]).Elem(), fmt.Sprintf("switch%d.", i), put)
	}
	counters(t, reflect.ValueOf(&set.Totals).Elem(), "totals.", put)
	return vals
}

// Since subtracts every cumulative field of every switch record and of
// the totals, and carries the high-water mark as it stands: filled with
// distinct values before and after, each field of the window must read
// its own difference, so a field Since leaves out fails.
func TestSinceCoversEveryField(t *testing.T) {
	loop := engine.NewSerial()
	set := New(loop, 2)
	before := setCounters(t, set, 0)
	snap := set.Snapshot()
	after := setCounters(t, set, 1000)
	loop.RunFor(7 * time.Millisecond)
	w := set.Since(snap)
	if w.Elapsed != 7*time.Millisecond {
		t.Fatalf("elapsed = %v, want 7ms", w.Elapsed)
	}
	got := map[string]uint64{}
	read := func(p string, f reflect.Value) { got[p] = counterOf(f) }
	for i := range w.Switches {
		counters(t, reflect.ValueOf(w.Switches[i]), fmt.Sprintf("switch%d.", i), read)
	}
	counters(t, reflect.ValueOf(w.Totals), "totals.", read)
	for _, p := range []string{"switch0.CPU", "switch1.Bus.DelayMax", "switch0.Cache.Hits",
		"switch1.ProbesDelivered", "totals.NetMeter.CentralBytes", "totals.Migrations"} {
		if _, ok := after[p]; !ok {
			t.Fatalf("no counter %s among %v", p, after)
		}
	}
	for p, a := range after {
		want := a - before[p]
		if strings.HasSuffix(p, ".Bus.DelayMax") {
			want = a
		}
		if got[p] != want {
			t.Errorf("%s: the window reads %d, want %d (%d before, %d after)", p, got[p], want, before[p], a)
		}
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
