package seeder

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
)

// probeSource declares a record type of its own, so linking it interns
// a layout that no other source has.
const probeSource = `
struct ConcurrentProbe { long n; float tx; }
machine Probe {
  place all;
  poll stats = Poll { .ival = 10, .what = port ANY };
  state observe {
    util (res) { return 1; }
    when (stats as recs) do {
      ConcurrentProbe p = ConcurrentProbe { .n = list_len(recs), .tx = list_get(recs, 0).dTxBytes };
      send p to harvester;
    }
  }
}
`

// TestConcurrentSimulations runs two independent simulations at once,
// each on a goroutine of its own with its own engine.Serial, fabric,
// seeder, the whole Tab. I catalogue and a task of its own record type,
// then retires and resubmits tasks: the shape of two fleet services in one process, a leader and a
// standby, each driven by its own engine goroutine. Those two goroutines
// share only process-wide state, and this test goes through all of it:
// core's layout table (LayoutOf, as each seeder links its programs; the
// probe's record layout is new to it),
// dataplane's Filter.Key cache (the soils' rule poll subjects),
// placement's heurPool (Heuristic, on every submit and retire) and the
// seeder's textScratch (sizing every seed message). Under -race it is
// the gate for that state; each run must also end as a lone run does.
func TestConcurrentSimulations(t *testing.T) {
	const runFor = 200 * time.Millisecond
	simulate := func(fab *fabric.Fabric, loop engine.Scheduler) (string, error) {
		sd := New(fab, Options{})
		// The probe goes first: the two goroutines intern its layout
		// before anything else they share could order them.
		specs := append([]TaskSpec{{Name: "probe", Source: probeSource}}, catalogueSpecs()...)
		for _, spec := range specs {
			if err := sd.AddTask(spec); err != nil {
				return "", err
			}
		}
		loop.RunFor(runFor)
		for _, spec := range specs[1:5] {
			if err := sd.RemoveTask(spec.Name); err != nil {
				return "", err
			}
			loop.RunFor(runFor / 4)
			if err := sd.AddTask(spec); err != nil {
				return "", err
			}
		}
		loop.RunFor(runFor)
		reports := 0
		for _, spec := range specs {
			h, _ := sd.Harvester(spec.Name)
			reports += len(h.History())
		}
		return fmt.Sprintf("%s reports=%d central=%d", sd.PlacementDigest(), reports, fab.CentralNet.Bytes()), nil
	}

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [2]string
		errs  [2]error
	)
	for i := range got {
		fab, loop := churnFabric(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = simulate(fab, loop)
		}()
	}
	close(start)
	wg.Wait()
	lone, err := simulate(churnFabric(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("simulation %d: %v", i, errs[i])
		}
		if got[i] != lone {
			t.Fatalf("simulation %d beside another ended as %s, alone as %s", i, got[i], lone)
		}
	}
}
