package seeder

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/netmodel"
	"farm/internal/soil"
)

// knobSource is a machine whose externals reach every analysis: its
// place directive (which leaf), its poll interval and subject, and its
// utility. No catalogue task binds an external any analysis reads.
const knobSource = `
machine Knob {
  place all leaf;
  external string leaf;
  external long period;
  external double weight;
  external filter subj;
  poll p = Poll { .ival = period / res().PCIe, .what = subj };
  long n;
  state s {
    util (res) { if (res.vCPU >= 1 and res.PCIe >= 1) then { return min(weight * res.vCPU, res.PCIe); } }
    when (p as stats) do { n = n + 1; }
  }
}`

// knobExternals draws Knob's externals within their valid range.
func knobExternals(rng *rand.Rand) map[string]core.Value {
	return map[string]core.Value{
		"leaf":   fmt.Sprintf("leaf%d", rng.Intn(4)),
		"period": int64(1 + rng.Intn(100)),
		"weight": 0.5 + 4*rng.Float64(),
		"subj":   core.FilterVal{PortAny: true},
	}
}

// drawExternals binds every external of a catalogue task to a value
// drawn in [1, 2×default]: thresholds and limits, all positive.
func drawExternals(rng *rand.Rand, defaults map[string]map[string]core.Value) map[string]map[string]core.Value {
	out := map[string]map[string]core.Value{}
	for m, ext := range defaults {
		out[m] = map[string]core.Value{}
		for k, v := range ext {
			out[m][k] = 1 + rng.Int63n(2*v.(int64))
		}
	}
	return out
}

// analysisStep is what one submit or retire leaves behind: its error,
// the placement digest, every live seed's candidate sets and every
// deployed seed's poll intervals.
type analysisStep struct {
	err        string
	digest     string
	candidates map[string][]netmodel.SwitchID
	intervals  map[string]time.Duration
}

// pollIntervals reads every poll and probe subscription's interval on a
// soil, by seed ID and trigger. Soil exports no way to ask (nothing but
// this oracle wants to), so it reads the unexported fields
// Soil.seeds → seedRuntime.subs → pollSub.{pi.Name, interval} by
// reflection; a rename there makes it panic, not pass.
func pollIntervals(s *soil.Soil, into map[string]time.Duration) {
	seeds := reflect.ValueOf(s).Elem().FieldByName("seeds")
	for it := seeds.MapRange(); it.Next(); {
		subs := it.Value().Elem().FieldByName("subs")
		for i := 0; i < subs.Len(); i++ {
			sub := subs.Index(i).Elem()
			key := it.Key().String() + "/" + sub.FieldByName("pi").Elem().FieldByName("Name").String()
			into[key] = time.Duration(sub.FieldByName("interval").Int())
		}
	}
}

// runSubmitScript submits and retires tasks on the control-churn fabric
// as rng says — the catalogue, a second task from each catalogue source,
// and two Knob tasks, each submit with externals drawn afresh — and
// records every step. fresh makes every submit analyse its machines
// anew.
func runSubmitScript(tb testing.TB, seed int64, ops int, fresh bool) []analysisStep {
	if fresh {
		testAnalysis = func(bool) bool { return true }
		defer func() { testAnalysis = nil }()
	}
	fab, loop := churnFabric(tb)
	sd := New(fab, Options{})
	var pool []TaskSpec
	for _, spec := range catalogueSpecs() {
		twin := spec
		twin.Name += "-twin"
		pool = append(pool, spec, twin)
	}
	pool = append(pool, TaskSpec{Name: "knob", Source: knobSource}, TaskSpec{Name: "knob-twin", Source: knobSource})
	rng := rand.New(rand.NewSource(seed))
	var steps []analysisStep
	for op := 0; op < ops; op++ {
		spec := pool[rng.Intn(len(pool))]
		var err error
		if sd.HasTask(spec.Name) {
			err = sd.RemoveTask(spec.Name)
		} else {
			if spec.Source == knobSource {
				spec.Externals = map[string]map[string]core.Value{"Knob": knobExternals(rng)}
			} else if spec.Externals != nil && rng.Intn(2) == 0 {
				spec.Externals = drawExternals(rng, spec.Externals)
			}
			err = sd.AddTask(spec)
		}
		loop.RunFor(time.Millisecond)
		st := analysisStep{
			err:        fmt.Sprint(err),
			digest:     sd.PlacementDigest(),
			candidates: map[string][]netmodel.SwitchID{},
			intervals:  map[string]time.Duration{},
		}
		for _, t := range sd.tasks {
			for _, s := range t.seeds {
				st.candidates[s.id] = slices.Clone(s.candidates)
			}
		}
		for _, sw := range fab.Topology().Switches() {
			pollIntervals(sd.Soil(sw.ID), st.intervals)
		}
		steps = append(steps, st)
	}
	return steps
}

// FuzzSubmitAnalysis: the program store's analyses change no answer.
// Random submit/retire sequences — catalogue tasks, a second task from
// each catalogue source, Knob tasks whose externals reach every
// analysis, externals drawn within each machine's valid range — give,
// with the store and with every submit analysing its machines afresh,
// the same placement digest, candidate sets and per-seed poll intervals
// after every step.
func FuzzSubmitAnalysis(f *testing.F) {
	f.Add(int64(1), uint8(40))
	f.Add(int64(11), uint8(60))
	f.Add(int64(23), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		n := 10 + int(ops%60)
		stored := runSubmitScript(t, seed, n, false)
		fresh := runSubmitScript(t, seed, n, true)
		polled := false
		for i := range stored {
			if !reflect.DeepEqual(stored[i], fresh[i]) {
				t.Fatalf("step %d: stored analyses give %+v, fresh ones %+v", i, stored[i], fresh[i])
			}
			polled = polled || len(stored[i].intervals) > 0
		}
		if !polled {
			t.Fatal("no step had a seed polling: the intervals went unchecked")
		}
	})
}
