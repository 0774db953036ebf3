package experiments

import (
	"runtime"
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/tasks"
)

// catalogueCapacity is the fleet soak's per-switch model: wide enough
// for the whole catalogue on every switch at once.
func catalogueCapacity() netmodel.Resources {
	return netmodel.Resources{
		netmodel.ResVCPU: 128,
		netmodel.ResRAM:  1 << 17,
		netmodel.ResTCAM: 1 << 14,
		netmodel.ResPCIe: 512,
		netmodel.ResPoll: 1e6,
	}
}

// TestCatalogueHeapFlat: a fabric running all 18 Tab. I tasks, with
// their harvesters, under the catalogue scenario's load holds a flat
// live heap and event queue in steady state. Between 5 s and 20 s of
// virtual time the live heap may grow by at most 256 KiB and the
// pending events by at most 5 %: a harvester that kept the reports it
// received grew it by ≈ 1 MB over the same span.
func TestCatalogueHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("20 virtual seconds of the whole catalogue take ≈ 19 s under the race detector")
	}
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: catalogueLeaves, HostsPerLeaf: 8,
		LeafCapacity: catalogueCapacity(), SpineCapacity: catalogueCapacity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})
	for _, d := range tasks.All() {
		spec := seeder.TaskSpec{Name: d.Name, Source: d.Source, Machines: d.Machines, Externals: d.DefaultExternals}
		if d.NewHarvester != nil {
			spec.Harvester = d.NewHarvester()
		}
		if err := sd.AddTask(spec); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	defer startCatalogueLoad(fab)()

	// runTo runs to virtual time at and reads the live heap and the
	// pending events.
	runTo := func(at time.Duration) (heap uint64, pending int) {
		loop.RunFor(at - loop.Now())
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, loop.Pending()
	}
	heap0, pending0 := runTo(5 * time.Second)
	heap1, pending1 := runTo(20 * time.Second)
	t.Logf("live heap %d → %d B, pending events %d → %d, %d harvest reports",
		heap0, heap1, pending0, pending1, fab.Meters.HarvestReports)
	if fab.Meters.HarvestReports == 0 {
		t.Fatal("no task reported to its harvester")
	}
	if heap1 > heap0+256<<10 {
		t.Errorf("the live heap grew by %d B from 5 s to 20 s, want at most 256 KiB", heap1-heap0)
	}
	if pending1*100 > pending0*105 {
		t.Errorf("pending events grew from %d to %d from 5 s to 20 s, want at most 5 %%", pending0, pending1)
	}
	runtime.KeepAlive(sd)
}
