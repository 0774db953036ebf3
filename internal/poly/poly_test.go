package poly

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"farm/internal/netmodel"
)

// The cases below name resources by short aliases: x, y and z for three
// of them, a, b and c for the same three in the property tests.
const (
	x = netmodel.ResVCPU
	y = netmodel.ResRAM
	z = netmodel.ResTCAM
	a = x
	b = y
	c = z
)

// at is the allocation with the given amounts of x, y and z.
func at(vx, vy, vz float64) netmodel.Vector {
	return netmodel.Vector{x: vx, y: vy, z: vz}
}

// usedRes lists the resources any linear part of u has a nonzero
// coefficient on, in index order.
func usedRes(u Utility) []netmodel.Res {
	var used [netmodel.NumRes]bool
	mark := func(p Linear) {
		for r, c := range p.Coef {
			used[r] = used[r] || c != 0
		}
	}
	for _, cs := range u {
		for _, con := range cs.Constraints {
			mark(con)
		}
		for _, t := range cs.Util {
			mark(t)
		}
	}
	var out []netmodel.Res
	for r, ok := range used {
		if ok {
			out = append(out, netmodel.Res(r))
		}
	}
	return out
}

func TestLinearBasics(t *testing.T) {
	p := Constant(2).Add(Term(x, 3)).Add(Term(y, -1))
	if got := p.Eval(at(1, 4, 0)); got != 1 {
		t.Fatalf("eval = %g, want 1", got)
	}
	if p.IsConstant() {
		t.Fatal("p should not be constant")
	}
	if !Constant(5).IsConstant() {
		t.Fatal("Constant(5) should be constant")
	}
	if got := p.Coef[x]; got != 3 {
		t.Fatalf("Coef[x] = %g, want 3", got)
	}
	if got := p.Coef[z]; got != 0 {
		t.Fatalf("Coef[z] = %g, want 0", got)
	}
}

func TestLinearVarsSorted(t *testing.T) {
	p := Term(netmodel.ResVCPU, 1).Add(Term(netmodel.ResPCIe, 2)).Add(Term(netmodel.ResRAM, 3))
	vs := usedRes(Utility{{Util: MinOf(p)}})
	want := []netmodel.Res{netmodel.ResPCIe, netmodel.ResRAM, netmodel.ResVCPU}
	if !slices.Equal(vs, want) {
		t.Fatalf("vars = %v, want %v", vs, want)
	}
	if got, want := p.String(), "0 + 2*PCIe + 3*RAM + 1*vCPU"; got != want {
		t.Fatalf("String() = %q, want %q (terms in name order)", got, want)
	}
}

func TestLinearZeroCoefDropped(t *testing.T) {
	p := Term(x, 2).Add(Term(x, -2))
	if vs := usedRes(Utility{{Util: MinOf(p)}}); len(vs) != 0 {
		t.Fatalf("vars after cancellation = %v, want none", vs)
	}
	if !p.IsConstant() {
		t.Fatal("cancelled polynomial should be constant")
	}
}

func TestLinearMul(t *testing.T) {
	p := Term(x, 2).Add(Constant(1))
	q, err := p.Mul(Constant(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Eval(at(2, 0, 0)); got != 15 {
		t.Fatalf("eval = %g, want 15", got)
	}
	if _, err := p.Mul(Term(y, 1)); err == nil {
		t.Fatal("nonlinear product should error")
	}
}

func TestLinearDiv(t *testing.T) {
	p := Term(x, 4)
	q, err := p.Div(Constant(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Coef[x]; got != 2 {
		t.Fatalf("coef = %g, want 2", got)
	}
	if _, err := p.Div(Constant(0)); err == nil {
		t.Fatal("division by zero should error")
	}
	if _, err := p.Div(Term(y, 1)); err == nil {
		t.Fatal("division by variable should error")
	}
}

func TestLinearString(t *testing.T) {
	p := Constant(2.5).Add(Term(netmodel.ResVCPU, 1)).Add(Term(netmodel.ResRAM, -3))
	if got, want := p.String(), "2.5 - 3*RAM + 1*vCPU"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestLinearEqual(t *testing.T) {
	p := Constant(1).Add(Term(x, 2))
	q := Term(x, 2).Add(Constant(1))
	if !p.Equal(q, 1e-12) {
		t.Fatal("p and q should be equal")
	}
	r := q.Add(Term(y, 1e-6))
	if p.Equal(r, 1e-12) {
		t.Fatal("p and r should differ")
	}
	if !p.Equal(r, 1e-3) {
		t.Fatal("p and r should be equal within 1e-3")
	}
}

// Property: evaluation is a homomorphism for Add/Sub/Scale.
func TestEvalHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randLin := func() Linear {
		p := Constant(rng.NormFloat64())
		for _, v := range []netmodel.Res{a, b, c} {
			if rng.Intn(2) == 0 {
				p = p.Add(Term(v, rng.NormFloat64()))
			}
		}
		return p
	}
	assign := at(1.5, -2, 0.25)
	for i := 0; i < 200; i++ {
		p, q := randLin(), randLin()
		k := rng.NormFloat64()
		if got, want := p.Add(q).Eval(assign), p.Eval(assign)+q.Eval(assign); math.Abs(got-want) > 1e-9 {
			t.Fatalf("add: %g != %g", got, want)
		}
		if got, want := p.Sub(q).Eval(assign), p.Eval(assign)-q.Eval(assign); math.Abs(got-want) > 1e-9 {
			t.Fatalf("sub: %g != %g", got, want)
		}
		if got, want := p.Scale(k).Eval(assign), k*p.Eval(assign); math.Abs(got-want) > 1e-9 {
			t.Fatalf("scale: %g != %g", got, want)
		}
	}
}

func TestMinExprEval(t *testing.T) {
	m := MinOf(Term(x, 1), Constant(5))
	if got := m.Eval(at(3, 0, 0)); got != 3 {
		t.Fatalf("eval = %g, want 3", got)
	}
	if got := m.Eval(at(9, 0, 0)); got != 5 {
		t.Fatalf("eval = %g, want 5", got)
	}
	if got := (MinExpr{}).Eval(netmodel.Vector{}); !math.IsInf(got, 1) {
		t.Fatalf("empty min = %g, want +Inf", got)
	}
}

func TestMinExprAddDistributes(t *testing.T) {
	m := MinOf(Term(x, 1), Term(y, 2))
	q := Constant(10)
	assign := at(1, 5, 0)
	if got, want := m.Add(q).Eval(assign), m.Eval(assign)+10; got != want {
		t.Fatalf("add: %g != %g", got, want)
	}
}

func TestMinExprScale(t *testing.T) {
	m := MinOf(Term(x, 1), Constant(4))
	s, err := m.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(at(1, 0, 0)); got != 2 {
		t.Fatalf("eval = %g, want 2", got)
	}
	if _, err := m.Scale(-1); err == nil {
		t.Fatal("negative scale must error")
	}
}

func TestMinExprMerge(t *testing.T) {
	m := MinOf(Constant(3)).Merge(MinOf(Constant(1), Constant(2)))
	if got := m.Eval(netmodel.Vector{}); got != 1 {
		t.Fatalf("merged min = %g, want 1", got)
	}
}

// Property: min is monotone — increasing any variable with nonnegative
// coefficients everywhere never decreases the min.
func TestMinMonotone(t *testing.T) {
	f := func(c0, c1, base, delta float64) bool {
		c0, c1 = math.Abs(c0), math.Abs(c1)
		delta = math.Abs(delta)
		m := MinOf(Term(x, c0).Add(Constant(1)), Term(x, c1))
		lo := m.Eval(at(base, 0, 0))
		hi := m.Eval(at(base+delta, 0, 0))
		return hi >= lo-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCaseFeasible(t *testing.T) {
	c := Case{
		Constraints: []Linear{Term(netmodel.ResVCPU, 1).Sub(Constant(1)), Term(netmodel.ResRAM, 1).Sub(Constant(100))},
		Util:        MinOf(Term(netmodel.ResVCPU, 1)),
	}
	if !c.Feasible(netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 128}, 0) {
		t.Fatal("should be feasible")
	}
	if c.Feasible(netmodel.Vector{netmodel.ResVCPU: 0.5, netmodel.ResRAM: 128}, 0) {
		t.Fatal("should be infeasible (vCPU)")
	}
	if c.Feasible(netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 64}, 0) {
		t.Fatal("should be infeasible (RAM)")
	}
}

func TestUtilityEvalPicksBestFeasibleCase(t *testing.T) {
	u := Utility{
		{Constraints: []Linear{Term(x, 1).Sub(Constant(10))}, Util: MinOf(Constant(100))},
		{Constraints: nil, Util: MinOf(Constant(1))},
	}
	if v, ok := u.Eval(at(20, 0, 0)); !ok || v != 100 {
		t.Fatalf("eval = %g,%v want 100,true", v, ok)
	}
	if v, ok := u.Eval(at(0, 0, 0)); !ok || v != 1 {
		t.Fatalf("eval = %g,%v want 1,true", v, ok)
	}
	empty := Utility{{Constraints: []Linear{Constant(-1)}}}
	if _, ok := empty.Eval(netmodel.Vector{}); ok {
		t.Fatal("no case should be feasible")
	}
}

func TestUtilityVars(t *testing.T) {
	u := Utility{
		{Constraints: []Linear{Term(netmodel.ResRAM, 1)}, Util: MinOf(Term(netmodel.ResVCPU, 1), Term(netmodel.ResPCIe, 1))},
	}
	vs := usedRes(u)
	want := []netmodel.Res{netmodel.ResPCIe, netmodel.ResRAM, netmodel.ResVCPU}
	if !slices.Equal(vs, want) {
		t.Fatalf("vars = %v, want %v", vs, want)
	}
}

// The HH example from the paper (List. 2): util returns
// min(res.vCPU, res.PCIe) under vCPU>=1 and RAM>=100.
func TestPaperHHUtility(t *testing.T) {
	u := Utility{{
		Constraints: []Linear{
			Term(netmodel.ResVCPU, 1).Sub(Constant(1)),
			Term(netmodel.ResRAM, 1).Sub(Constant(100)),
		},
		Util: MinOf(Term(netmodel.ResVCPU, 1), Term(netmodel.ResPCIe, 1)),
	}}
	v, ok := u.Eval(netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 256, netmodel.ResPCIe: 1.5})
	if !ok || v != 1.5 {
		t.Fatalf("eval = %g,%v want 1.5,true", v, ok)
	}
	if _, ok := u.Eval(netmodel.Vector{netmodel.ResVCPU: 0.5, netmodel.ResRAM: 256, netmodel.ResPCIe: 1.5}); ok {
		t.Fatal("should be infeasible below vCPU=1")
	}
}
