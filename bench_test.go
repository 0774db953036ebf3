// Package farm's repository-root benchmarks regenerate each table and
// figure of the paper's evaluation through internal/experiments, one
// testing.B target per artifact, at farm-bench's quick scale:
//
//	go test -bench=. -benchmem
//
// Fig. 7 and Fig. 10 run at smaller scales than farm-bench's quick one
// (Fig. 7's waits out minutes of solver deadlines), so their benchmarks
// live in internal/experiments.
//
// Benchmarks report the headline quantity of their experiment as a
// custom metric next to the usual ns/op (which here measures the cost
// of regenerating the artifact, not the artifact itself). cmd/farm-bench
// prints the full tables.
package farm_test

import (
	"testing"
	"time"

	"farm/internal/experiments"
	"farm/internal/placement"
)

func BenchmarkTab1UseCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Tab1()
		if len(res.Rows) < 16 {
			b.Fatalf("catalogue rows = %d", len(res.Rows))
		}
		b.ReportMetric(float64(len(res.Rows)), "use-cases")
	}
}

func BenchmarkTab4DetectionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tab4()
		if err != nil {
			b.Fatal(err)
		}
		var farm, sonata time.Duration
		for _, r := range res.Rows {
			switch r.System {
			case "FARM":
				farm = r.Time
			case "Sonata":
				sonata = r.Time
			}
		}
		b.ReportMetric(float64(farm.Microseconds()), "farm-detect-us")
		b.ReportMetric(float64(sonata)/float64(farm), "sonata/farm-x")
	}
}

func BenchmarkFig4NetworkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(false)
		if err != nil {
			b.Fatal(err)
		}
		farm := res.Systems["FARM"]
		sflow := res.Systems["sFlow 10ms"]
		last := len(farm) - 1
		if farm[last].BytesPerSec > 0 {
			b.ReportMetric(sflow[last].BytesPerSec/farm[last].BytesPerSec, "sflow/farm-bytes-x")
		} else {
			b.ReportMetric(sflow[last].BytesPerSec, "sflow-bytes-per-sec")
		}
	}
}

func BenchmarkFig5CPULoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(false)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.FARM) - 1 // 10000 flows
		b.ReportMetric(res.FARM[last].Load*100, "farm-cpu-pct-10k")
		b.ReportMetric(res.SFlow[last].Load*100, "sflow-cpu-pct-10k")
	}
}

func BenchmarkFig6SeedScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(false)
		if err != nil {
			b.Fatal(err)
		}
		hh, ml := res.Variants["HH 10ms"], res.Variants["ML 10ms x10iter (partitioned)"]
		b.ReportMetric(hh[len(hh)-1].Load*100, "hh100-cpu-pct")
		b.ReportMetric(ml[len(ml)-1].Load*100, "ml250-cpu-pct")
	}
}

// BenchmarkFig7HeuristicPaperScale runs the heuristic alone at the
// paper's largest grid point (10200 seeds, 1040 switches). Skipped in
// -short mode; this is the scalability claim of §VI-D.
func BenchmarkFig7HeuristicPaperScale(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale placement skipped in -short")
	}
	in := placement.RandomScenario(placement.ScenarioConfig{
		Switches: 1040, Seeds: 10200, Tasks: 10, Seed: 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := placement.Heuristic(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Utility, "utility")
		b.ReportMetric(float64(len(res.Placed)), "seeds-placed")
	}
}

func BenchmarkFig8PCIe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.NoAggregation) - 1
		b.ReportMetric(res.NoAggregation[last].Utilization*100, "bus-pct-noagg-64")
		b.ReportMetric(res.WithAggregation[last].Utilization*100, "bus-pct-agg-64")
	}
}

func BenchmarkFig9Aggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		thr, prc := res.Configs["threads + aggregation"], res.Configs["processes + aggregation"]
		b.ReportMetric(thr[len(thr)-1].Load*100, "threads-cpu-pct")
		b.ReportMetric(prc[len(prc)-1].Load*100, "processes-cpu-pct")
	}
}

func BenchmarkAblationHeuristicPasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Passes.Rows) != 3 {
			b.Fatal("missing ablation rows")
		}
	}
}

func BenchmarkAblationMigrationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in := placement.RandomScenario(placement.ScenarioConfig{
			Switches: 8, Seeds: 50, Tasks: 6, Seed: int64(i),
		})
		prior, err := placement.Heuristic(in)
		if err != nil {
			b.Fatal(err)
		}
		in.Current = prior.Placed
		in.MigrationCost = 0.5
		res, err := placement.Heuristic(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Migrations), "migrations")
	}
}
