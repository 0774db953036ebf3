package lp_test

import (
	"math/rand"
	"testing"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/lp"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/tasks"
)

// TestCatalogueLPsSparseMatchesDense: every LP the placement heuristic
// solves while the Tab. I catalogue is submitted and then churned on the
// control-churn fabric (two spines, four leaves, the fleet soak's
// capacities) — step 3's per-switch LPs and the minimal-allocation LPs
// alike — solves bit for bit the same with the sparse pivot as with the
// dense oracle. Step 3 solves each distinct LP once per placement solve,
// and a resubmit of one task repeats few, so the churn is control-churn's
// own: 20 seeded rounds that retire 5 random tasks and resubmit them,
// which reach more than 100 LPs of more than 50 rows.
func TestCatalogueLPsSparseMatchesDense(t *testing.T) {
	capacity := netmodel.Resources{
		netmodel.ResVCPU: 128, netmodel.ResRAM: 1 << 17, netmodel.ResTCAM: 1 << 14,
		netmodel.ResPCIe: 512, netmodel.ResPoll: 1e6,
	}
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 4, HostsPerLeaf: 8, LeafCapacity: capacity, SpineCapacity: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lps []*lp.Problem
	stop := lp.CaptureSolves(func(p *lp.Problem) { lps = append(lps, p) })
	defer stop()
	sd := seeder.New(fabric.New(topo, engine.NewSerial(), fabric.Options{}), seeder.Options{})
	var specs []seeder.TaskSpec
	for _, d := range tasks.All() {
		specs = append(specs, seeder.TaskSpec{Name: d.Name, Source: d.Source, Machines: d.Machines, Externals: d.DefaultExternals})
	}
	for _, spec := range specs {
		if err := sd.AddTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		churned := rng.Perm(len(specs))[:5]
		for _, i := range churned {
			if err := sd.RemoveTask(specs[i].Name); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range churned {
			if err := sd.AddTask(specs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop()

	rows, pivoted := 0, 0
	for i, p := range lps {
		got, gerr := p.Solve()
		want, werr := lp.SolveDense(p)
		if !lp.SameSolution(got, gerr, want, werr) {
			t.Fatalf("LP %d (%d variables, %d rows): sparse %+v (%v), dense %+v (%v)",
				i, p.NumVars(), p.NumConstraints(), got, gerr, want, werr)
		}
		rows = max(rows, p.NumConstraints())
		if gerr == nil && got.Status == lp.Optimal {
			pivoted++
		}
	}
	if len(lps) < 100 || rows < 50 {
		t.Fatalf("%d LPs of at most %d rows: the catalogue's step-3 LPs were not captured", len(lps), rows)
	}
	t.Logf("%d LPs (%d optimal), up to %d rows", len(lps), pivoted, rows)
}
