package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj=12.
	p := New(Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.AddConstraint([]Coef{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Coef{{x, 1}, {y, 3}}, LE, 6)
	p.SetObjective([]Coef{{x, 3}, {y, 2}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Objective, 12, 1e-6, "objective")
	approx(t, sol.Value(x), 4, 1e-6, "x")
	approx(t, sol.Value(y), 0, 1e-6, "y")
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2 -> x=10 y=0? obj: coefficient of x
	// smaller, so push x: x=10, y=0, obj=20.
	p := New(Minimize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.AddConstraint([]Coef{{x, 1}, {y, 1}}, GE, 10)
	p.AddConstraint([]Coef{{x, 1}}, GE, 2)
	p.SetObjective([]Coef{{x, 2}, {y, 3}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Objective, 20, 1e-6, "objective")
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + y == 5, x <= 3 -> obj = 5.
	p := New(Maximize)
	x := p.AddVar("x", 0, 3)
	y := p.AddVar("y", 0, Inf)
	p.AddConstraint([]Coef{{x, 1}, {y, 1}}, EQ, 5)
	p.SetObjective([]Coef{{x, 1}, {y, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Objective, 5, 1e-6, "objective")
	approx(t, sol.Value(x)+sol.Value(y), 5, 1e-6, "x+y")
}

func TestInfeasible(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar("x", 0, Inf)
	p.AddConstraint([]Coef{{x, 1}}, LE, 1)
	p.AddConstraint([]Coef{{x, 1}}, GE, 2)
	p.SetObjective([]Coef{{x, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar("x", 0, Inf)
	p.AddConstraint([]Coef{{x, -1}}, LE, 1)
	p.SetObjective([]Coef{{x, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestVariableBounds(t *testing.T) {
	// max x + y with 1 <= x <= 2, 0 <= y <= 3, x + y <= 4 -> x=2 (or 1..2), y up to 3; obj=4+? x+y<=4 binds: obj=4.
	p := New(Maximize)
	x := p.AddVar("x", 1, 2)
	y := p.AddVar("y", 0, 3)
	p.AddConstraint([]Coef{{x, 1}, {y, 1}}, LE, 4)
	p.SetObjective([]Coef{{x, 1}, {y, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Objective, 4, 1e-6, "objective")
	if sol.Value(x) < 1-1e-9 || sol.Value(x) > 2+1e-9 {
		t.Fatalf("x = %g out of bounds", sol.Value(x))
	}
}

func TestLowerBoundShift(t *testing.T) {
	// min x with x >= 5 via bound -> 5.
	p := New(Minimize)
	x := p.AddVar("x", 5, Inf)
	p.SetObjective([]Coef{{x, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Objective, 5, 1e-6, "objective")
	approx(t, sol.Value(x), 5, 1e-6, "x")
}

func TestFixedVariable(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar("x", 2, 2)
	y := p.AddVar("y", 0, Inf)
	p.AddConstraint([]Coef{{x, 1}, {y, 1}}, LE, 5)
	p.SetObjective([]Coef{{x, 1}, {y, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Value(x), 2, 1e-6, "x")
	approx(t, sol.Objective, 5, 1e-6, "objective")
}

func TestObjectiveConstant(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar("x", 0, 1)
	p.SetObjective([]Coef{{x, 1}}, 10)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Objective, 11, 1e-6, "objective")
}

func TestNegativeRHS(t *testing.T) {
	// x - y <= -2 with max x, x <= 5 -> y >= x+2 always satisfiable; obj=5.
	p := New(Maximize)
	x := p.AddVar("x", 0, 5)
	y := p.AddVar("y", 0, Inf)
	p.AddConstraint([]Coef{{x, 1}, {y, -1}}, LE, -2)
	p.SetObjective([]Coef{{x, 1}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Objective, 5, 1e-6, "objective")
	if sol.Value(y) < sol.Value(x)+2-1e-6 {
		t.Fatalf("constraint violated: x=%g y=%g", sol.Value(x), sol.Value(y))
	}
}

func TestDegenerate(t *testing.T) {
	// A classic degenerate LP; checks anti-cycling survives.
	p := New(Minimize)
	x1 := p.AddVar("x1", 0, Inf)
	x2 := p.AddVar("x2", 0, Inf)
	x3 := p.AddVar("x3", 0, Inf)
	x4 := p.AddVar("x4", 0, Inf)
	p.AddConstraint([]Coef{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Coef{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Coef{{x3, 1}}, LE, 1)
	p.SetObjective([]Coef{{x1, -0.75}, {x2, 150}, {x3, -0.02}, {x4, 6}}, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Objective, -0.05, 1e-6, "objective (Beale's example)")
}

// Property-style test: on random feasible programs the simplex solution
// must satisfy every constraint and variable bound.
func TestRandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		p := New(Maximize)
		vars := make([]Var, n)
		for i := 0; i < n; i++ {
			vars[i] = p.AddVar("v", 0, 10)
		}
		type consT struct {
			coefs []Coef
			rhs   float64
		}
		var cons []consT
		for j := 0; j < m; j++ {
			coefs := make([]Coef, 0, n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					coefs = append(coefs, Coef{vars[i], float64(rng.Intn(5) + 1)})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{vars[0], 1})
			}
			rhs := float64(rng.Intn(40) + 5)
			p.AddConstraint(coefs, LE, rhs)
			cons = append(cons, consT{coefs, rhs})
		}
		obj := make([]Coef, n)
		for i := 0; i < n; i++ {
			obj[i] = Coef{vars[i], rng.Float64()*4 - 1}
		}
		p.SetObjective(obj, 0)
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		for i := 0; i < n; i++ {
			v := sol.Value(vars[i])
			if v < -1e-6 || v > 10+1e-6 {
				t.Fatalf("trial %d: var %d = %g out of [0,10]", trial, i, v)
			}
		}
		for j, c := range cons {
			lhs := 0.0
			for _, cf := range c.coefs {
				lhs += cf.Val * sol.Value(cf.Var)
			}
			if lhs > c.rhs+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, j, lhs, c.rhs)
			}
		}
	}
}

// Weak duality style optimality spot-check: perturbing the optimum along
// feasible directions should not improve the objective. We instead verify
// against a brute-force grid on small integer-coefficient problems.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		p := New(Maximize)
		x := p.AddVar("x", 0, 6)
		y := p.AddVar("y", 0, 6)
		a1, b1 := float64(rng.Intn(3)+1), float64(rng.Intn(3)+1)
		r1 := float64(rng.Intn(12) + 4)
		a2, b2 := float64(rng.Intn(3)+1), float64(rng.Intn(3)+1)
		r2 := float64(rng.Intn(12) + 4)
		cx, cy := float64(rng.Intn(5)+1), float64(rng.Intn(5)+1)
		p.AddConstraint([]Coef{{x, a1}, {y, b1}}, LE, r1)
		p.AddConstraint([]Coef{{x, a2}, {y, b2}}, LE, r2)
		p.SetObjective([]Coef{{x, cx}, {y, cy}}, 0)
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// Fine grid brute force.
		best := 0.0
		for xi := 0.0; xi <= 6.0001; xi += 0.01 {
			// For fixed x, best y is bounded by constraints.
			ymax := 6.0
			if b1 > 0 {
				ymax = math.Min(ymax, (r1-a1*xi)/b1)
			}
			if b2 > 0 {
				ymax = math.Min(ymax, (r2-a2*xi)/b2)
			}
			if ymax < 0 {
				continue
			}
			if v := cx*xi + cy*ymax; v > best {
				best = v
			}
		}
		if sol.Objective < best-1e-2 {
			t.Fatalf("trial %d: simplex %g < brute force %g", trial, sol.Objective, best)
		}
	}
}

func TestMILPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a=1,c=1 (17)
	// vs b=1,c=1 (20; weight 6 ok) -> optimal 20.
	p := New(Maximize)
	a := p.AddBinary("a")
	b := p.AddBinary("b")
	c := p.AddBinary("c")
	p.AddConstraint([]Coef{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	p.SetObjective([]Coef{{a, 10}, {b, 13}, {c, 7}}, 0)
	sol, err := p.SolveMILP(MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	approx(t, sol.Objective, 20, 1e-6, "objective")
	approx(t, sol.Value(b), 1, 1e-6, "b")
	approx(t, sol.Value(c), 1, 1e-6, "c")
}

func TestMILPIntegerVar(t *testing.T) {
	// max x s.t. 2x <= 7, x integer -> 3.
	p := New(Maximize)
	x := p.AddIntVar("x", 0, 100)
	p.AddConstraint([]Coef{{x, 2}}, LE, 7)
	p.SetObjective([]Coef{{x, 1}}, 0)
	sol, err := p.SolveMILP(MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Objective, 3, 1e-6, "objective")
}

func TestMILPInfeasible(t *testing.T) {
	p := New(Maximize)
	x := p.AddBinary("x")
	p.AddConstraint([]Coef{{x, 1}}, GE, 0.4)
	p.AddConstraint([]Coef{{x, 1}}, LE, 0.6)
	p.SetObjective([]Coef{{x, 1}}, 0)
	sol, err := p.SolveMILP(MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMILPMixed(t *testing.T) {
	// max 2x + y, x binary, y continuous <= 1.5, x + y <= 2 -> x=1, y=1 -> 3.
	p := New(Maximize)
	x := p.AddBinary("x")
	y := p.AddVar("y", 0, 1.5)
	p.AddConstraint([]Coef{{x, 1}, {y, 1}}, LE, 2)
	p.SetObjective([]Coef{{x, 2}, {y, 1}}, 0)
	sol, err := p.SolveMILP(MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sol.Objective, 3, 1e-6, "objective")
	approx(t, sol.Value(x), 1, 1e-6, "x")
}

func TestMILPDeadline(t *testing.T) {
	// A larger random knapsack; a 1 ns timeout has expired before the
	// search starts, so it must return quickly with DeadlineExceeded.
	rng := rand.New(rand.NewSource(3))
	p := New(Maximize)
	var coefs, weights []Coef
	for i := 0; i < 40; i++ {
		v := p.AddBinary("b")
		coefs = append(coefs, Coef{v, float64(rng.Intn(50) + 1)})
		weights = append(weights, Coef{v, float64(rng.Intn(30) + 1)})
	}
	p.AddConstraint(weights, LE, 120)
	p.SetObjective(coefs, 0)
	start := time.Now()
	sol, err := p.SolveMILP(MILPOptions{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != DeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", sol.Status)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not honored promptly")
	}
}

// Property: branch & bound yields integral values and never exceeds the
// LP relaxation bound.
func TestMILPIntegralityAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		p := New(Maximize)
		vars := make([]Var, n)
		var weight []Coef
		var objc []Coef
		for i := 0; i < n; i++ {
			vars[i] = p.AddBinary("b")
			weight = append(weight, Coef{vars[i], float64(rng.Intn(9) + 1)})
			objc = append(objc, Coef{vars[i], float64(rng.Intn(20) + 1)})
		}
		cap := float64(rng.Intn(20) + 5)
		p.AddConstraint(weight, LE, cap)
		p.SetObjective(objc, 0)

		relax, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := p.SolveMILP(MILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if sol.Objective > relax.Objective+1e-6 {
			t.Fatalf("trial %d: MILP %g beats relaxation %g", trial, sol.Objective, relax.Objective)
		}
		total := 0.0
		for i, v := range vars {
			x := sol.Value(v)
			if math.Abs(x-math.Round(x)) > 1e-6 {
				t.Fatalf("trial %d: var %d = %g not integral", trial, i, x)
			}
			total += weight[i].Val * x
		}
		if total > cap+1e-6 {
			t.Fatalf("trial %d: knapsack overweight %g > %g", trial, total, cap)
		}
	}
}

// densePivot is the dense pivot the sparse one replaced, kept as its
// oracle: every column of every row with a nonzero multiplier, and of
// the reduced costs, is updated.
func densePivot(t *tableau, leave, enter int) {
	piv := t.a[leave][enter]
	inv := 1 / piv
	rowL := t.a[leave]
	for j := 0; j < t.ncols; j++ {
		rowL[j] *= inv
	}
	t.b[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.ncols; j++ {
			row[j] -= f * rowL[j]
		}
		t.b[i] -= f * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	f := t.obj[enter]
	if f != 0 {
		for j := 0; j < t.ncols; j++ {
			t.obj[j] -= f * rowL[j]
		}
		t.objConst -= f * t.b[leave]
	}
	t.basis[leave] = enter
}

// solveDense solves p with the dense pivot oracle in place of the
// sparse pivot.
func solveDense(p *Problem) (*Solution, error) {
	testPivot = densePivot
	defer func() { testPivot = nil }()
	return p.Solve()
}

// sameSolution reports whether two solves ended bit for bit alike:
// error, status, objective and every value.
func sameSolution(a *Solution, aerr error, b *Solution, berr error) bool {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return false
	}
	if aerr != nil {
		return true
	}
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// fillRandomMixedLP builds a random LP over every feature the solver
// has: either sense, lower-bounded, fixed and unbounded variables,
// LE/GE/EQ rows with signed coefficients, and a constant objective
// term. Rows are drawn around a random point within the bounds, so most
// LPs are feasible; one in eight gets a contradicting row pair, and
// unbounded variables make some unbounded.
func fillRandomMixedLP(p *Problem, rng *rand.Rand) {
	sense := Maximize
	if rng.Intn(2) == 0 {
		sense = Minimize
	}
	p.Reset(sense)
	n := 1 + rng.Intn(12)
	m := rng.Intn(14)
	vs := make([]Var, n)
	x0 := make([]float64, n)
	for i := range vs {
		lb := 0.0
		if rng.Intn(4) == 0 {
			lb = float64(rng.Intn(5))
		}
		ub := Inf
		x0[i] = lb + float64(rng.Intn(6))
		switch rng.Intn(8) {
		case 0:
			ub, x0[i] = lb, lb
		case 1, 2, 3, 4:
			ub = x0[i] + float64(rng.Intn(20))
		}
		vs[i] = p.AddVar("v", lb, ub)
	}
	for j := 0; j < m; j++ {
		var coefs []Coef
		at := 0.0
		for i := range vs {
			if rng.Intn(3) == 0 {
				c := float64(rng.Intn(11) - 3)
				coefs = append(coefs, Coef{vs[i], c})
				at += c * x0[i]
			}
		}
		switch rng.Intn(6) {
		case 0:
			p.AddConstraint(coefs, EQ, at)
		case 1, 2:
			p.AddConstraint(coefs, GE, at-float64(rng.Intn(6)))
		default:
			p.AddConstraint(coefs, LE, at+float64(rng.Intn(6)))
		}
	}
	if rng.Intn(8) == 0 {
		v := vs[rng.Intn(n)]
		p.AddConstraint([]Coef{{v, 1}}, GE, 30)
		p.AddConstraint([]Coef{{v, 1}}, LE, 29)
	}
	obj := make([]Coef, 0, n)
	for i := range vs {
		if rng.Intn(4) != 0 {
			obj = append(obj, Coef{vs[i], float64(rng.Intn(13)-4) / 3})
		}
	}
	p.SetObjective(obj, float64(rng.Intn(5)))
}

// fillStep3LP builds an LP of the placement heuristic's step-3 shape:
// per seed, resource variables bounded by the switch's capacity, a
// utility variable under min-of-linear LE rows, GE case rows and GE poll
// demand rows on shared poll variables; then one LE capacity row per
// resource and one shared poll row. seeds sets the size.
func fillStep3LP(p *Problem, rng *rand.Rand, seeds int) {
	p.Reset(Maximize)
	const nres, nsubj = 4, 6
	capacity := [nres]float64{128, 1 << 17, 1 << 14, 512}
	pollVars := make([]Var, nsubj)
	pollUsed := make([]bool, nsubj)
	usage := make([][]Coef, nres)
	var obj []Coef
	for s := 0; s < seeds; s++ {
		var rv [nres]Var
		for r := range rv {
			rv[r] = p.AddVar("res", 0, capacity[r])
			usage[r] = append(usage[r], Coef{rv[r], 1})
		}
		u := p.AddVar("u", 0, Inf)
		obj = append(obj, Coef{u, 1})
		for k := 1 + rng.Intn(2); k > 0; k-- {
			r := rng.Intn(nres)
			p.AddConstraint([]Coef{{u, 1}, {rv[r], -float64(1 + rng.Intn(12))}}, LE, float64(rng.Intn(3)))
		}
		for r := 0; r < 2; r++ {
			p.AddConstraint([]Coef{{rv[r], 1}}, GE, float64(1+rng.Intn(4))/4)
		}
		for k := rng.Intn(3); k > 0; k-- {
			sj := rng.Intn(nsubj)
			if !pollUsed[sj] {
				pollVars[sj], pollUsed[sj] = p.AddVar("poll", 0, Inf), true
			}
			p.AddConstraint([]Coef{{pollVars[sj], 1}, {rv[3], -float64(10 + rng.Intn(90))}}, GE, 0)
		}
	}
	for r := range usage {
		p.AddConstraint(usage[r], LE, capacity[r])
	}
	var polls []Coef
	for sj, used := range pollUsed {
		if used {
			polls = append(polls, Coef{pollVars[sj], 1})
		}
	}
	if len(polls) > 0 {
		p.AddConstraint(polls, LE, 1e6)
	}
	p.SetObjective(obj, 0)
}

// TestSparsePivotMatchesDense: on random LPs of every shape and on
// step-3-shaped ones, the sparse pivot's Solutions are bitwise the dense
// oracle's. (The catalogue's own step-3 LPs are checked the same way by
// TestCatalogueLPsSparseMatchesDense.)
func TestSparsePivotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	statuses := map[Status]int{}
	check := func(trial int, p *Problem) {
		t.Helper()
		got, gerr := p.Solve()
		want, werr := solveDense(p)
		if !sameSolution(got, gerr, want, werr) {
			t.Fatalf("trial %d: sparse %+v (%v), dense %+v (%v)", trial, got, gerr, want, werr)
		}
		if gerr == nil {
			statuses[got.Status]++
		}
	}
	p := New(Maximize)
	for trial := 0; trial < 2000; trial++ {
		fillRandomMixedLP(p, rng)
		check(trial, p)
	}
	for trial := 0; trial < 40; trial++ {
		fillStep3LP(p, rng, 1+rng.Intn(30))
		check(trial, p)
	}
	t.Logf("%v", statuses)
	if statuses[Optimal] < 1000 || statuses[Infeasible] == 0 || statuses[Unbounded] == 0 {
		t.Fatalf("random LPs cover too little: %v", statuses)
	}
}

// TestProblemReuseBitIdentical: one Problem rebuilt and solved over a
// random sequence of differently shaped LPs answers each bit for bit as
// a fresh Problem does, so nothing a solve reads survives the Reset.
func TestProblemReuseBitIdentical(t *testing.T) {
	reused := New(Maximize)
	for trial := 0; trial < 400; trial++ {
		build := func(p *Problem) {
			rng := rand.New(rand.NewSource(int64(trial)))
			if trial%3 == 0 {
				fillStep3LP(p, rng, 1+trial%25)
			} else {
				fillRandomMixedLP(p, rng)
			}
		}
		build(reused)
		got, gerr := reused.Solve()
		fresh := New(Maximize)
		build(fresh)
		want, werr := fresh.Solve()
		if !sameSolution(got, gerr, want, werr) {
			t.Fatalf("trial %d: reused problem %+v (%v), fresh %+v (%v)", trial, got, gerr, want, werr)
		}
	}
}
