package lp

import (
	"math/rand"
	"testing"
)

func fillRandomLP(p *Problem, rng *rand.Rand, vars, cons int) {
	vs := make([]Var, vars)
	for i := range vs {
		vs[i] = p.AddVar("v", 0, 100)
	}
	for j := 0; j < cons; j++ {
		coefs := make([]Coef, 0, vars)
		for i := range vs {
			if rng.Intn(3) == 0 {
				coefs = append(coefs, Coef{vs[i], float64(rng.Intn(9) + 1)})
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{vs[0], 1})
		}
		p.AddConstraint(coefs, LE, float64(rng.Intn(200)+50))
	}
	obj := make([]Coef, vars)
	for i := range vs {
		obj[i] = Coef{vs[i], rng.Float64() * 10}
	}
	p.SetObjective(obj, 0)
}

func randomLP(rng *rand.Rand, vars, cons int) *Problem {
	p := New(Maximize)
	fillRandomLP(p, rng, vars, cons)
	return p
}

func BenchmarkSimplexSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomLP(rng, 10, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := randomLP(rng, 60, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexRebuildReuse measures the redistribution hot path's
// shape: rebuild a same-shaped LP into one Reset problem arena and
// solve, every iteration. Grow-only buffers make repeat solves
// allocation-light.
func BenchmarkSimplexRebuildReuse(b *testing.B) {
	p := New(Maximize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(Maximize)
		fillRandomLP(p, rand.New(rand.NewSource(2)), 60, 80)
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPKnapsack20(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := New(Maximize)
	var weights, values []Coef
	for i := 0; i < 20; i++ {
		v := p.AddBinary("b")
		weights = append(weights, Coef{v, float64(rng.Intn(20) + 1)})
		values = append(values, Coef{v, float64(rng.Intn(40) + 1)})
	}
	p.AddConstraint(weights, LE, 80)
	p.SetObjective(values, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveMILP(MILPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexStep3 measures the placement heuristic's step-3 LP
// shape (bounded resource variables, GE case and poll rows, shared poll
// variables, one capacity row per resource and a shared poll row) at
// the loaded control-churn size: rebuilt into one Reset problem and
// solved, every iteration.
func BenchmarkSimplexStep3(b *testing.B) {
	p := New(Maximize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillStep3LP(p, rand.New(rand.NewSource(5)), 24)
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
