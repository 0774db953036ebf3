// Package poly implements multivariate linear polynomials and
// piecewise-linear utility functions.
//
// Almanac's static analysis (§III-B of the FARM paper) turns every seed's
// util callback into an explicit polynomial representation: a set of
// alternatives ("cases"), each consisting of linear resource constraints
// C^s(r) >= 0 and a utility u^s(r) expressed as the minimum of linear
// terms. This canonical form is what the placement optimizer (§IV)
// consumes, both in the MILP formulation and in the Alg. 1 heuristic.
package poly

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"farm/internal/netmodel"
)

// Linear is a linear polynomial c0 + sum_r coef[r] * r over the
// resources. The zero value is the constant polynomial 0 and is ready to
// use.
type Linear struct {
	Const float64
	Coef  [netmodel.NumRes]float64
}

// Constant returns the constant polynomial c.
func Constant(c float64) Linear { return Linear{Const: c} }

// Var returns the polynomial 1*r.
func Var(r netmodel.Res) Linear { return Term(r, 1) }

// Term returns the polynomial coef*r.
func Term(r netmodel.Res, coef float64) Linear {
	var p Linear
	p.Coef[r] = coef
	return p
}

// IsConstant reports whether p has no variable terms.
func (p Linear) IsConstant() bool { return p.Coef == [netmodel.NumRes]float64{} }

// Add returns p + q.
func (p Linear) Add(q Linear) Linear {
	p.Const += q.Const
	for r, c := range q.Coef {
		p.Coef[r] += c
	}
	return p
}

// Sub returns p - q.
func (p Linear) Sub(q Linear) Linear { return p.Add(q.Scale(-1)) }

// Scale returns k*p.
func (p Linear) Scale(k float64) Linear {
	r := Linear{Const: p.Const * k}
	if k != 0 {
		for i, c := range p.Coef {
			r.Coef[i] = c * k
		}
	}
	return r
}

// Mul returns p*q if at least one operand is constant. Products of two
// non-constant polynomials are non-linear and rejected, matching the
// syntactic restrictions the paper imposes on util bodies.
func (p Linear) Mul(q Linear) (Linear, error) {
	switch {
	case p.IsConstant():
		return q.Scale(p.Const), nil
	case q.IsConstant():
		return p.Scale(q.Const), nil
	default:
		return Linear{}, fmt.Errorf("poly: product %v * %v is non-linear", p, q)
	}
}

// Div returns p/q for constant, nonzero q.
func (p Linear) Div(q Linear) (Linear, error) {
	if !q.IsConstant() {
		return Linear{}, fmt.Errorf("poly: division by non-constant %v", q)
	}
	if q.Const == 0 {
		return Linear{}, fmt.Errorf("poly: division by zero")
	}
	return p.Scale(1 / q.Const), nil
}

// Eval evaluates p at the allocation r, summing its nonzero terms in
// resource order.
func (p Linear) Eval(r netmodel.Vector) float64 {
	v := p.Const
	for i, c := range p.Coef {
		if c != 0 {
			v += c * r[i]
		}
	}
	return v
}

// Equal reports whether p and q are the same polynomial (coefficient-wise
// within eps).
func (p Linear) Equal(q Linear, eps float64) bool {
	if math.Abs(p.Const-q.Const) > eps {
		return false
	}
	for r, c := range p.Coef {
		if math.Abs(c-q.Coef[r]) > eps {
			return false
		}
	}
	return true
}

// String renders p deterministically, e.g. "2.5 - 3*RAM + 1*vCPU".
func (p Linear) String() string {
	var b strings.Builder
	b.WriteString(strconv.FormatFloat(p.Const, 'g', -1, 64))
	for r, c := range p.Coef {
		switch {
		case c == 0:
		case c >= 0:
			fmt.Fprintf(&b, " + %s*%s", strconv.FormatFloat(c, 'g', -1, 64), netmodel.Res(r))
		default:
			fmt.Fprintf(&b, " - %s*%s", strconv.FormatFloat(-c, 'g', -1, 64), netmodel.Res(r))
		}
	}
	return b.String()
}

// MinExpr is a piecewise-linear concave utility: the pointwise minimum of
// its linear terms. An empty MinExpr is invalid; use Constant terms for
// fixed utilities.
type MinExpr []Linear

// MinOf builds a MinExpr from terms.
func MinOf(terms ...Linear) MinExpr { return MinExpr(terms) }

// Eval evaluates the minimum at the allocation r. Evaluating an empty
// MinExpr returns +Inf (the identity of min).
func (m MinExpr) Eval(r netmodel.Vector) float64 {
	v := math.Inf(1)
	for _, t := range m {
		if tv := t.Eval(r); tv < v {
			v = tv
		}
	}
	return v
}

// Add returns the MinExpr shifted by a linear polynomial:
// min_i(t_i) + q = min_i(t_i + q).
func (m MinExpr) Add(q Linear) MinExpr {
	r := make(MinExpr, len(m))
	for i, t := range m {
		r[i] = t.Add(q)
	}
	return r
}

// Scale multiplies by k >= 0 (scaling by a negative constant would turn
// min into max and is rejected).
func (m MinExpr) Scale(k float64) (MinExpr, error) {
	if k < 0 {
		return nil, fmt.Errorf("poly: scaling MinExpr by negative %g", k)
	}
	r := make(MinExpr, len(m))
	for i, t := range m {
		r[i] = t.Scale(k)
	}
	return r, nil
}

// Merge returns min(m, n) as a single MinExpr.
func (m MinExpr) Merge(n MinExpr) MinExpr {
	r := make(MinExpr, 0, len(m)+len(n))
	r = append(r, m...)
	r = append(r, n...)
	return r
}

func (m MinExpr) String() string {
	if len(m) == 1 {
		return m[0].String()
	}
	parts := make([]string, len(m))
	for i, t := range m {
		parts[i] = t.String()
	}
	return "min(" + strings.Join(parts, ", ") + ")"
}

// Case is one alternative of a piecewise utility: when all Constraints
// evaluate >= 0 the seed may be placed under this case and contributes
// Util to the monitoring utility. A util body with `or` conditions or
// several `if` branches compiles to multiple cases (§III-B-b).
type Case struct {
	Constraints []Linear // each must be >= 0 for the case to apply
	Util        MinExpr  // utility under this case
}

// Feasible reports whether all constraints hold at the allocation r
// (with tolerance eps for roundoff).
func (c Case) Feasible(r netmodel.Vector, eps float64) bool {
	for _, con := range c.Constraints {
		if con.Eval(r) < -eps {
			return false
		}
	}
	return true
}

// Utility is a full piecewise-linear utility function: the set of
// alternative cases extracted from a util callback. At most one case is
// selected by the optimizer (the paper models this by splitting the seed
// into copies, of which at most one is placed).
type Utility []Case

// Eval returns the best utility over all feasible cases, and false if no
// case is feasible at the allocation r.
func (u Utility) Eval(r netmodel.Vector) (float64, bool) {
	best, ok := math.Inf(-1), false
	for _, c := range u {
		if !c.Feasible(r, 1e-9) {
			continue
		}
		if v := c.Util.Eval(r); !ok || v > best {
			best, ok = v, true
		}
	}
	return best, ok
}
