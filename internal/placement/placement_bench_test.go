package placement

import (
	"testing"
	"time"
)

func benchScenario(seeds, switches int) *Input {
	return RandomScenario(ScenarioConfig{
		Switches: switches, Seeds: seeds, Tasks: 10, Seed: 1,
	})
}

func BenchmarkHeuristic100(b *testing.B) {
	in := benchScenario(100, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Heuristic(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristic1000(b *testing.B) {
	in := benchScenario(1000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Heuristic(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicWarmReplan measures the dirty-set replan path: one
// task's seeds are removed from an otherwise pinned 1000-seed
// placement — the seeder's task-departure latency.
func BenchmarkHeuristicWarmReplan(b *testing.B) {
	in := benchScenario(1000, 100)
	first, err := Heuristic(in)
	if err != nil {
		b.Fatal(err)
	}
	warm := *in
	warm.Current = first.Placed
	dropTask(&warm, in.Seeds[0].Task)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Heuristic(&warm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILP20(b *testing.B) {
	in := benchScenario(20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MILP(in, MILPOptions{Timeout: 5 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}
