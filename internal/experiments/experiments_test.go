package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTab4Shape(t *testing.T) {
	res := quick(t).tab4
	byName := map[string]Tab4Row{}
	for _, r := range res.Rows {
		byName[r.System] = r
	}
	farm := byName["FARM"].Time
	sf := byName["sFlow"].Time
	so := byName["Sonata"].Time
	if farm <= 0 || sf <= 0 || so <= 0 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// The ordering claim of Tab. 4: FARM << Planck < Helios < sFlow << Sonata.
	if farm > 5*time.Millisecond {
		t.Fatalf("FARM detection %v, want low single-digit ms", farm)
	}
	if sf < 10*farm {
		t.Fatalf("sFlow %v should be >=10x FARM %v", sf, farm)
	}
	if so < 10*sf {
		t.Fatalf("Sonata %v should be >=10x sFlow %v", so, sf)
	}
	// Headline factor: Sonata/FARM in the thousands (paper: 3427x).
	if ratio := float64(so) / float64(farm); ratio < 500 {
		t.Fatalf("Sonata/FARM ratio = %.0fx, want >= 500x", ratio)
	}
}

func TestFig4Shape(t *testing.T) {
	res := quick(t).fig4
	farm := res.Systems["FARM"]
	sf1 := res.Systems["sFlow 1ms"]
	sf10 := res.Systems["sFlow 10ms"]
	so := res.Systems["Sonata (75% agg)"]
	last := len(farm) - 1 // the most ports
	// FARM reports changes (nonzero under churn) but stays orders of
	// magnitude below the collectors.
	if farm[last].BytesPerSec <= 0 {
		t.Fatal("FARM sent nothing despite churn")
	}
	if farm[last].BytesPerSec*100 > sf10[last].BytesPerSec {
		t.Fatalf("FARM %.0f B/s not <<100x sFlow10 %.0f B/s", farm[last].BytesPerSec, sf10[last].BytesPerSec)
	}
	// sFlow 1ms is ~10x sFlow 10ms.
	if sf1[last].BytesPerSec < 5*sf10[last].BytesPerSec {
		t.Fatalf("sFlow1ms %.0f vs sFlow10ms %.0f: expected ~10x", sf1[last].BytesPerSec, sf10[last].BytesPerSec)
	}
	// Collector load grows with ports; FARM grows much slower.
	if sf10[last].BytesPerSec < 2*sf10[0].BytesPerSec {
		t.Fatalf("sFlow10 did not scale with ports: %.0f -> %.0f", sf10[0].BytesPerSec, sf10[last].BytesPerSec)
	}
	// Sonata exports something but far less often than sFlow 1ms.
	if so[last].BytesPerSec <= 0 {
		t.Fatal("Sonata exported nothing")
	}
}

func TestFig5Shape(t *testing.T) {
	res := quick(t).fig5
	last := len(res.FARM) - 1 // the most flows
	// FARM grows with flows.
	if res.FARM[last].Load <= res.FARM[0].Load*5 {
		t.Fatalf("FARM load did not grow with flows: %v", res.FARM)
	}
	// sFlow is roughly flat (within 3x across a 100x flow range) and
	// higher than FARM across the sweep.
	if res.SFlow[last].Load > res.SFlow[0].Load*3 {
		t.Fatalf("sFlow load not flat: %v", res.SFlow)
	}
	for i := range res.FARM {
		if i > 0 && res.FARM[i].Load > res.SFlow[i].Load {
			t.Fatalf("FARM above sFlow at %d flows: %v vs %v",
				res.FARM[i].Flows, res.FARM[i].Load, res.SFlow[i].Load)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res := quick(t).fig6
	hh1 := res.Variants["HH 1ms"]
	hh10 := res.Variants["HH 10ms"]
	ml1 := res.Variants["ML 1ms x1iter"]
	ml10 := res.Variants["ML 10ms x10iter (partitioned)"]
	// The HH panels and the unpartitioned ML panel share one seed axis;
	// compare them at its largest count.
	last := len(hh1) - 1
	// 1ms polling costs ~10x the 10ms variant.
	if hh1[last].Load < 4*hh10[last].Load {
		t.Fatalf("HH 1ms %v not >>4x HH 10ms %v", hh1[last].Load, hh10[last].Load)
	}
	// ML dominates HH at the same rate (Fig. 6c is much higher than 6a).
	if ml1[last].Load < 2*hh1[last].Load {
		t.Fatalf("ML@1ms %v not >> HH@1ms %v", ml1[last].Load, hh1[last].Load)
	}
	// The partitioned ML panel scales to more seeds at lower load than
	// the unpartitioned one at the same seed count; 10 seeds is the first
	// point of both axes.
	if ml10[0].Seeds != ml1[0].Seeds || ml10[0].Load >= ml1[0].Load {
		t.Fatalf("partitioned ML %+v not cheaper than unpartitioned %+v", ml10[0], ml1[0])
	}
	// Accuracy degrades when load exceeds the 4 cores.
	for _, p := range ml1 {
		if p.Load > 4 && p.Accuracy >= 1 {
			t.Fatalf("saturated run reports full accuracy: %+v", p)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := fig7(fig7Scale{
		seedCounts: []int{20, 60}, switchesPerSeed: 0.1, runs: 2,
		milpShort: 200 * time.Millisecond, milpLong: 10 * time.Second, milpMaxSeeds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Heuristic) != 2 || len(res.MILPLong) == 0 {
		t.Fatalf("series: heuristic=%d milp=%d", len(res.Heuristic), len(res.MILPLong))
	}
	h := res.Heuristic[0]
	l := res.MILPLong[0]
	// Heuristic utility within a reasonable factor of the long-budget MILP.
	if h.Utility < 0.5*l.Utility {
		t.Fatalf("heuristic utility %.1f << MILP %.1f", h.Utility, l.Utility)
	}
	// And much faster than the long-budget exact solve at equal size.
	if h.Runtime > l.Runtime {
		t.Fatalf("heuristic %v slower than MILP long %v", h.Runtime, l.Runtime)
	}
}

func TestFig8Shape(t *testing.T) {
	res := quick(t).fig8
	noAgg := res.NoAggregation
	agg := res.WithAggregation
	last := len(noAgg) - 1 // the most seeds
	// Without aggregation the bus saturates as seeds multiply.
	if noAgg[last].Utilization < 0.9 {
		t.Fatalf("bus not saturated at %d seeds without aggregation: %v", noAgg[last].Seeds, noAgg[last].Utilization)
	}
	if noAgg[0].Utilization > 0.9 {
		t.Fatalf("bus already saturated at 1 seed: %v", noAgg[0].Utilization)
	}
	// With aggregation utilization is flat in the seed count.
	if agg[last].Utilization > agg[0].Utilization*1.5+0.05 {
		t.Fatalf("aggregation did not flatten bus use: %v vs %v", agg[last].Utilization, agg[0].Utilization)
	}
	if res.ASICRatio < 10000 {
		t.Fatalf("ASIC ratio = %g", res.ASICRatio)
	}
}

func TestFig9Shape(t *testing.T) {
	res := quick(t).fig9
	thrAgg := res.Configs["threads + aggregation"]
	prcAgg := res.Configs["processes + aggregation"]
	last := len(thrAgg) - 1 // 150 seeds
	// Processes cost more CPU than threads at scale (context switches).
	if prcAgg[last].Load <= thrAgg[last].Load {
		t.Fatalf("processes %v not costlier than threads %v", prcAgg[last].Load, thrAgg[last].Load)
	}
	// Thread seeds stay cheap even with 150 seeds (paper: perform
	// equally well regardless of aggregation, >100 seeds).
	if thrAgg[last].Load > 0.5 {
		t.Fatalf("thread soil load %v too high", thrAgg[last].Load)
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := fig10(fig10Scale{seedCounts: []int{1, 32}, callsPerSeed: 300})
	if err != nil {
		t.Fatal(err)
	}
	// The RPC path is slower than the shared buffer at every point.
	for i := range res.SharedBuf {
		if res.TCPRPC[i].MeanLatency <= res.SharedBuf[i].MeanLatency {
			t.Fatalf("TCP %v not slower than shared buffer %v at %d seeds",
				res.TCPRPC[i].MeanLatency, res.SharedBuf[i].MeanLatency, res.SharedBuf[i].Seeds)
		}
	}
}

func TestTab1Catalogue(t *testing.T) {
	res := Tab1()
	if len(res.Rows) < 16 {
		t.Fatalf("catalogue rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SeedLoC < 7 {
			t.Fatalf("task %s LoC = %d", r.Name, r.SeedLoC)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	res := quick(t).abl
	// Redistribution must add utility over greedy-only.
	greedy, err1 := strconv.ParseFloat(res.Passes.Rows[0].Values[0], 64)
	withLP, err2 := strconv.ParseFloat(res.Passes.Rows[1].Values[0], 64)
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	if withLP <= greedy {
		t.Fatalf("LP redistribution added no utility: greedy %v, with LP %v", greedy, withLP)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "t",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "x", Values: []string{"1", "2"}}},
		Notes:   []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"== t ==", "x", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTab5Matrix(t *testing.T) {
	tab := Tab5()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 systems", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last.Label != "FARM" {
		t.Fatalf("last row = %s, want FARM", last.Label)
	}
	for _, v := range last.Values {
		if v != "yes" {
			t.Fatalf("FARM row = %v, want all yes", last.Values)
		}
	}
}

// BenchmarkFig7Placement runs one 30-seed Fig. 7 point with short
// exact-solver budgets; the quick grid waits out minutes of deadlines.
func BenchmarkFig7Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := fig7(fig7Scale{
			seedCounts: []int{30}, switchesPerSeed: 0.1, runs: 1,
			milpShort: 200 * time.Millisecond, milpLong: 3 * time.Second, milpMaxSeeds: 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		h := res.Heuristic[0]
		b.ReportMetric(h.Utility, "heuristic-utility")
		b.ReportMetric(float64(h.Runtime.Microseconds()), "heuristic-us")
		if len(res.MILPLong) > 0 && res.MILPLong[0].Utility > 0 {
			b.ReportMetric(h.Utility/res.MILPLong[0].Utility, "heur/milp-utility")
		}
	}
}

// BenchmarkFig10Transport measures one 50-seed Fig. 10 point.
func BenchmarkFig10Transport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := fig10(fig10Scale{seedCounts: []int{50}, callsPerSeed: 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SharedBuf[0].MeanLatency.Nanoseconds()), "sharedbuf-ns")
		b.ReportMetric(float64(res.TCPRPC[0].MeanLatency.Nanoseconds()), "tcprpc-ns")
	}
}
