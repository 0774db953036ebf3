package main

import (
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/transport/bus"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"farm/internal/traffic.(*Generator).StartFlow.func1": "traffic",
		"farm/internal/fabric.(*Fabric).Send.func1":          "fabric",
		"farm/internal/dataplane.(*Bus).Request":             "dataplane",
		"farm/internal/soil.(*pollGroup).retune":             "soil",
		"farm/internal/transport/bus.(*Broker).Publish":      "transport",
		"farm/internal/transport.(*tcpConn).Call":            "transport",
		"farm/internal/lp.(*Problem).Solve":                  "placement",
		"farm/internal/tasks.hhLogic.OnSeedMessage":          "harvest",
		"farm/internal/engine.ScheduleOn":                    "engine",
		"farm/internal/metrics.(*CPUMeter).Charge":           "",
		"farm/internal/sketch.(*CountMin).Add":               "",
		"runtime.mallocgc":                                   "",
		"main.(*traceSched).After":                           "",
	} {
		got := ""
		if l := layerOf(fn); l >= 0 {
			got = layers[l]
		}
		if got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
}

// eventsOf runs what a layer's real scheduling site schedules and
// returns the fired-callback count per layer.
func eventsOf(schedule func(s engine.Scheduler)) map[string]uint64 {
	ts := newTraceSched(engine.NewSerial())
	schedule(ts)
	ts.RunFor(time.Second)
	got := map[string]uint64{}
	for i, n := range ts.take(0).Events {
		if n > 0 {
			got[layers[i]] = n
		}
	}
	return got
}

// One known scheduling site per layer that schedules must be charged to
// that layer, also when it goes through an engine helper.
func TestCallSiteClassification(t *testing.T) {
	got := eventsOf(func(s engine.Scheduler) {
		dataplane.NewBus(s, 0).Request(16, func(time.Duration) {})
	})
	if len(got) != 1 || got["dataplane"] != 1 {
		t.Errorf("PCIe completion: %v, want one dataplane event", got)
	}

	// The broker schedules its flush through engine.ScheduleOn.
	got = eventsOf(func(s engine.Scheduler) {
		b := bus.New(s, nil)
		b.Subscribe("t", func(bus.Message) {})
		b.Publish("t", 1)
	})
	if len(got) != 1 || got["transport"] != 1 {
		t.Errorf("bus flush: %v, want one transport event", got)
	}

	// A whole unit: generator emissions, fabric hops and control-link
	// deliveries, PCIe completions and soil poll groups.
	spec, _ := simSpecByName("catalogue-mix")
	spec.window = 50 * time.Millisecond
	s, err := runUnit(spec, defaultSeed, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"traffic", "fabric", "dataplane", "soil"} {
		if s.Trace.Events[layerIndex[layer]] == 0 {
			t.Errorf("catalogue-mix fired no %s event: %v", layer, s.Trace.Events)
		}
	}
	for i, n := range s.Trace.Events {
		if _, ok := newMetricSet(perLayer).values[layers[i]+".span_s"]; !ok && n > 0 {
			t.Errorf("layer %s fired %d events but the ledger has no span row for it", layers[i], n)
		}
	}
}

// The tracing scheduler must not change what a unit does: the same
// counts and digests with and without it, on every simulation workload.
func TestTracingPreservesFiringOrder(t *testing.T) {
	for _, spec := range simSpecs {
		spec.window = 50 * time.Millisecond
		t.Run(spec.name, func(t *testing.T) {
			plain, err := runUnit(spec, defaultSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runUnit(spec, defaultSeed, &tracer{})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Counts != traced.Counts {
				t.Errorf("tracing changed the run:\nplain  %+v\ntraced %+v", plain.Counts, traced.Counts)
			}
			var events uint64
			for _, n := range traced.Trace.Events {
				events += n
			}
			if events == 0 {
				t.Error("traced unit recorded no event")
			}
		})
	}
}
