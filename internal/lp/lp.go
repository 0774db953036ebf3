// Package lp implements a two-phase primal simplex solver for
// linear programs and a branch-and-bound solver for mixed-integer linear
// programs, using only the standard library.
//
// FARM's placement optimizer (§IV of the paper) has two consumers for
// this package: the full MILP formulation of the placement problem (the
// Gurobi role in Fig. 7) and the per-switch LP used by step 3 of the
// Alg. 1 heuristic ("redistribute resources using linear programming").
package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Inf is a convenience positive infinity for variable bounds.
var Inf = math.Inf(1)

// Sense selects the optimization direction.
type Sense int

const (
	Maximize Sense = iota + 1
	Minimize
)

// Op is a constraint comparison operator.
type Op int

const (
	LE Op = iota + 1 // <=
	GE               // >=
	EQ               // ==
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Status reports the outcome of a solve.
type Status int

const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
	DeadlineExceeded // MILP hit its deadline; Solution holds the incumbent
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case DeadlineExceeded:
		return "deadline-exceeded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Var is a handle to a decision variable within one Problem.
type Var int

// Coef pairs a variable with its coefficient in a linear expression.
type Coef struct {
	Var Var
	Val float64
}

type variable struct {
	name    string
	lb, ub  float64
	integer bool
}

// constraint is one row: Problem.coefs[lo:hi] op rhs.
type constraint struct {
	lo, hi int
	op     Op
	rhs    float64
}

// Problem is a linear or mixed-integer linear program under
// construction. The zero value is not usable; call New.
//
// A Problem is not safe for concurrent use: besides the builder state,
// it owns grow-only arenas (every constraint's coefficients in one
// slice; bounds, right-hand sides and the tableau for Solve)
// that are reused across Reset and Solve, so rebuilding and solving
// problems no larger than an earlier one allocates only the escaping
// Solution. The placement heuristic keeps one Problem per solve state
// and Resets it for every switch's step-3 LP.
type Problem struct {
	sense    Sense
	vars     []variable
	cons     []constraint
	coefs    []Coef // constraint coefficient arena, see constraint
	objCoefs []Coef
	objConst float64
	// deadline, when nonzero, aborts long simplex runs with
	// ErrDeadline (set by SolveMILP so a single huge relaxation cannot
	// blow through the branch-and-bound budget).
	deadline time.Time
	// scr is the reusable solve arena (see solveRelaxation).
	scr scratch
}

// ErrDeadline is returned when a solve exceeds the configured deadline.
var ErrDeadline = errors.New("lp: deadline exceeded during simplex")

// New returns an empty problem with the given optimization sense.
func New(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// Reset clears the problem for rebuilding under a new sense while
// keeping every allocated buffer (variables, the coefficient arena,
// objective, solve arena) for reuse. Var handles are invalidated;
// Solutions are not: Solve always allocates a fresh one.
func (p *Problem) Reset(sense Sense) {
	p.sense = sense
	p.vars = p.vars[:0]
	p.cons = p.cons[:0]
	p.coefs = p.coefs[:0]
	p.objCoefs = p.objCoefs[:0]
	p.objConst = 0
	p.deadline = time.Time{}
}

// AddVar declares a continuous variable with bounds [lb, ub]; ub may be
// lp.Inf. lb must be finite (free variables are not needed by FARM's
// formulations, where every quantity is a nonnegative resource amount or
// a 0/1 indicator).
func (p *Problem) AddVar(name string, lb, ub float64) Var {
	p.vars = append(p.vars, variable{name: name, lb: lb, ub: ub})
	return Var(len(p.vars) - 1)
}

// AddBinary declares a 0/1 integer variable.
func (p *Problem) AddBinary(name string) Var {
	v := p.AddVar(name, 0, 1)
	p.vars[v].integer = true
	return v
}

// AddConstraint adds sum(coefs) op rhs. The coefs are copied into the
// problem's coefficient arena.
func (p *Problem) AddConstraint(coefs []Coef, op Op, rhs float64) {
	lo := len(p.coefs)
	p.coefs = append(p.coefs, coefs...)
	p.cons = append(p.cons, constraint{lo: lo, hi: len(p.coefs), op: op, rhs: rhs})
}

// SetObjective sets the objective sum(coefs) + constant.
func (p *Problem) SetObjective(coefs []Coef, constant float64) {
	p.objCoefs = append(p.objCoefs[:0], coefs...)
	p.objConst = constant
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	Values    []float64 // indexed by Var
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.Values[v] }

const (
	eps        = 1e-9
	ratioEps   = 1e-9
	intFeasTol = 1e-6
)

// ErrNumerical is returned when the simplex cannot make progress
// (cycling beyond the anti-cycling fallback's iteration budget).
var ErrNumerical = errors.New("lp: simplex failed to converge")

// Solve solves the continuous relaxation of the problem (integrality
// markers are ignored) with the two-phase primal simplex method.
func (p *Problem) Solve() (*Solution, error) {
	if testSolve != nil {
		testSolve(p)
	}
	return p.solveRelaxation(nil, nil)
}

// Test hooks, nil in production. lp's tests install the dense pivot
// oracle in place of pivot, and observe every Solve so that the LPs
// other packages build can be re-solved both ways.
var (
	testPivot func(t *tableau, leave, enter int)
	testSolve func(p *Problem)
)

// scratch is the grow-only solve arena owned by a Problem: every buffer
// solveRelaxation needs, reused across calls so repeat solves of
// same-shaped problems allocate only the escaping Solution.
type scratch struct {
	lb, ub []float64
	rowRHS []float64 // shifted right-hand sides, before negation
	rowOps []Op      // after negation
	cost   []float64
	c1, c2 []float64
	xs     []float64
	tab    tableau
	tabA   []float64 // dense tableau backing
}

// growF returns *buf resized to n without zeroing, growing it if needed.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) >= n {
		*buf = (*buf)[:n]
	} else {
		*buf = make([]float64, n)
	}
	return *buf
}

// growFZero returns *buf resized to n with every element zeroed.
func growFZero(buf *[]float64, n int) []float64 {
	b := growF(buf, n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// tableau returns the arena's reusable tableau sized to m rows and
// maxCols columns, fully cleared.
func (s *scratch) tableau(m, maxCols int) *tableau {
	t := &s.tab
	need := m * maxCols
	if cap(s.tabA) >= need {
		s.tabA = s.tabA[:need]
		for i := range s.tabA {
			s.tabA[i] = 0
		}
	} else {
		s.tabA = make([]float64, need)
	}
	if cap(t.a) >= m {
		t.a = t.a[:m]
	} else {
		t.a = make([][]float64, m)
	}
	for i := range t.a {
		t.a[i] = s.tabA[i*maxCols : (i+1)*maxCols]
	}
	t.b = growFZero(&t.b, m)
	if cap(t.basis) >= m {
		t.basis = t.basis[:m]
	} else {
		t.basis = make([]int, m)
	}
	for i := range t.basis {
		t.basis[i] = -1
	}
	if cap(t.nz) < maxCols {
		t.nz = make([]int, 0, maxCols)
	}
	t.m, t.ncols = m, maxCols
	t.frozenFrom = -1
	t.objConst = 0
	t.deadline = time.Time{}
	return t
}

// solveRelaxation solves the LP relaxation with optional per-variable
// bound overrides (used by branch & bound; nil means no override).
func (p *Problem) solveRelaxation(lbOverride, ubOverride map[Var]float64) (*Solution, error) {
	n := len(p.vars)
	s := &p.scr
	lb := growF(&s.lb, n)
	ub := growF(&s.ub, n)
	for i, v := range p.vars {
		lb[i], ub[i] = v.lb, v.ub
	}
	for v, b := range lbOverride {
		if b > lb[v] {
			lb[v] = b
		}
	}
	for v, b := range ubOverride {
		if b < ub[v] {
			ub[v] = b
		}
	}
	for i := range p.vars {
		if lb[i] > ub[i]+eps {
			return &Solution{Status: Infeasible}, nil
		}
		if math.IsInf(lb[i], -1) {
			return nil, fmt.Errorf("lp: variable %q has no finite lower bound", p.vars[i].name)
		}
	}

	// Shift every variable by its lower bound: x = x' + lb, x' >= 0.
	// Finite upper bounds become extra rows x' <= ub-lb. The rows'
	// right-hand sides and operators come first: they fix the column
	// layout.
	maxRows := len(p.cons) + n
	rowRHS := growF(&s.rowRHS, maxRows)
	if cap(s.rowOps) >= maxRows {
		s.rowOps = s.rowOps[:maxRows]
	} else {
		s.rowOps = make([]Op, maxRows)
	}
	rowOps := s.rowOps
	m := 0
	for _, c := range p.cons {
		rhs := c.rhs
		for _, cf := range p.coefs[c.lo:c.hi] {
			rhs -= cf.Val * lb[cf.Var]
		}
		rowOps[m], rowRHS[m] = c.op, rhs
		m++
	}
	for i := 0; i < n; i++ {
		if math.IsInf(ub[i], 1) {
			continue
		}
		op := LE
		if ub[i]-lb[i] <= eps {
			// Fixed variable: pin with an equality so the tableau
			// cannot drift.
			op = EQ
		}
		rowOps[m], rowRHS[m] = op, ub[i]-lb[i]
		m++
	}
	// A row with a negative right-hand side is negated, which swaps LE
	// and GE.
	for i := 0; i < m; i++ {
		if rowRHS[i] < 0 {
			switch rowOps[i] {
			case LE:
				rowOps[i] = GE
			case GE:
				rowOps[i] = LE
			}
		}
	}

	// Objective in "minimize" form over shifted variables.
	objSign := 1.0
	if p.sense == Maximize {
		objSign = -1
	}
	cost := growFZero(&s.cost, n)
	objShift := p.objConst
	for _, cf := range p.objCoefs {
		cost[cf.Var] += objSign * cf.Val
		objShift += cf.Val * lb[cf.Var]
	}

	// Column layout: [structural n][slack/surplus][artificial]: a slack
	// for every inequality, an artificial for every GE or EQ row.
	nSlack, nArt := 0, 0
	for _, op := range rowOps[:m] {
		if op != EQ {
			nSlack++
		}
		if op != LE {
			nArt++
		}
	}
	t := s.tableau(m, n+nSlack+nArt)
	t.deadline = p.deadline
	sign := func(i int) float64 {
		if rowRHS[i] < 0 {
			return -1
		}
		return 1
	}
	// Structural columns, the row negated with its right-hand side.
	// Summing sign*coef is bit for bit sign*(sum of coefs): negation is
	// exact and rounding symmetric.
	for i, c := range p.cons {
		row, sg := t.a[i], sign(i)
		for _, cf := range p.coefs[c.lo:c.hi] {
			row[cf.Var] += sg * cf.Val
		}
	}
	for i, r := 0, len(p.cons); i < n; i++ {
		if !math.IsInf(ub[i], 1) {
			t.a[r][i] = sign(r)
			r++
		}
	}
	slackCol := n
	artCol := n + nSlack
	for i := 0; i < m; i++ {
		t.b[i] = sign(i) * rowRHS[i]
		switch rowOps[i] {
		case LE:
			t.a[i][slackCol] = 1
			// Slack can serve as the initial basic variable.
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			fallthrough
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}
	t.ncols = artCol
	artStart := n + nSlack

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		c1 := growFZero(&s.c1, t.ncols)
		for j := artStart; j < artStart+nArt; j++ {
			c1[j] = 1
		}
		if err := t.setObjective(c1); err != nil {
			return nil, err
		}
		if status, err := t.iterate(t.ncols); err != nil {
			return nil, err
		} else if status == Unbounded {
			// Phase 1 objective is bounded below by 0; unbounded
			// here means a numerical failure.
			return nil, ErrNumerical
		}
		if t.objValue() > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		// Pivot remaining artificials out of the basis where possible.
		// A row with no eligible column is redundant: its artificial
		// stays basic at zero, and phase 2 freezes artificials out of
		// the entering-column choice.
		for i := 0; i < m; i++ {
			if t.basis[i] < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[i][j]) > 1e-7 {
					t.pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: minimize the real cost; artificial columns are frozen.
	c2 := growFZero(&s.c2, t.ncols)
	copy(c2, cost)
	t.frozenFrom = artStart
	if err := t.setObjective(c2); err != nil {
		return nil, err
	}
	status, err := t.iterate(artStart)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	// Extract the solution, undoing the lower-bound shift. Values is
	// freshly allocated — it escapes into the Solution.
	xs := growFZero(&s.xs, n)
	for i := 0; i < m; i++ {
		if t.basis[i] < n {
			xs[t.basis[i]] = t.b[i]
		}
	}
	vals := make([]float64, n)
	obj := objShift
	for i := 0; i < n; i++ {
		vals[i] = xs[i] + lb[i]
	}
	for _, cf := range p.objCoefs {
		obj += cf.Val * xs[cf.Var]
	}
	return &Solution{Status: Optimal, Objective: obj, Values: vals}, nil
}

// tableau is a simplex tableau for min c'x, Ax=b, x>=0, b>=0, stored
// dense and pivoted sparse (see pivot).
type tableau struct {
	m, ncols   int
	a          [][]float64
	b          []float64
	obj        []float64 // reduced costs
	objConst   float64
	basis      []int
	frozenFrom int // columns >= frozenFrom may not enter the basis (-1: none)
	deadline   time.Time
	nz         []int // pivot's scratch: the pivot row's nonzero columns
}

// setObjective installs cost vector c and prices out the current basis.
func (t *tableau) setObjective(c []float64) error {
	if cap(t.obj) >= t.ncols {
		t.obj = t.obj[:t.ncols]
	} else {
		t.obj = make([]float64, t.ncols)
	}
	copy(t.obj, c)
	t.objConst = 0
	for i := 0; i < t.m; i++ {
		k := t.basis[i]
		if k < 0 {
			return fmt.Errorf("lp: row %d has no basic variable", i)
		}
		ck := c[k]
		if ck == 0 {
			continue
		}
		for j := 0; j < t.ncols; j++ {
			t.obj[j] -= ck * t.a[i][j]
		}
		t.objConst -= ck * t.b[i]
	}
	return nil
}

func (t *tableau) objValue() float64 { return -t.objConst }

// iterate runs simplex pivots until optimality or unboundedness.
// enterLimit restricts entering columns to [0, enterLimit).
func (t *tableau) iterate(enterLimit int) (Status, error) {
	maxIters := 200 * (t.m + t.ncols)
	bland := false
	blandBudget := maxIters
	for iter := 0; ; iter++ {
		if !t.deadline.IsZero() && iter%64 == 0 && time.Now().After(t.deadline) {
			return 0, ErrDeadline
		}
		if iter > maxIters {
			if !bland {
				bland = true
				maxIters += blandBudget
				continue
			}
			return 0, ErrNumerical
		}
		limit := enterLimit
		if t.frozenFrom >= 0 && t.frozenFrom < limit {
			limit = t.frozenFrom
		}
		// Entering column.
		enter := -1
		if bland {
			for j := 0; j < limit; j++ {
				if t.obj[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < limit; j++ {
				if t.obj[j] < best {
					best = t.obj[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij <= ratioEps {
				continue
			}
			r := t.b[i] / aij
			if r < bestRatio-eps || (r < bestRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				bestRatio = r
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave. The other rows and the
// reduced costs change only in the pivot row's nonzero columns (step-3
// LPs average ~4 of ~270): a column the pivot row has zero in would be
// updated by x -= f*0, which changes at most the sign of a zero x. No
// comparison, multiplier (only nonzero entries are ever multiplied in)
// or b value can observe a zero's sign, so every pivot choice and every
// b, hence every Solution, is bit for bit what the dense update gives.
// lp_test.go keeps that dense update as the oracle.
func (t *tableau) pivot(leave, enter int) {
	if testPivot != nil {
		testPivot(t, leave, enter)
		return
	}
	rowL := t.a[leave]
	inv := 1 / rowL[enter]
	nz := t.nz[:0]
	for j, v := range rowL[:t.ncols] {
		if v == 0 {
			continue
		}
		v *= inv
		rowL[j] = v
		if v != 0 {
			nz = append(nz, j)
		}
	}
	t.nz = nz
	t.b[leave] *= inv
	bL := t.b[leave]
	for i := 0; i < t.m; i++ {
		row := t.a[i]
		f := row[enter]
		if i == leave || f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * rowL[j]
		}
		t.b[i] -= f * bL
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	if f := t.obj[enter]; f != 0 {
		for _, j := range nz {
			t.obj[j] -= f * rowL[j]
		}
		t.objConst -= f * bL
	}
	t.basis[leave] = enter
}

// MILPOptions configures branch & bound.
type MILPOptions struct {
	Timeout time.Duration // wall-clock budget from the call; 0: none
}

// maxNodes caps the branch & bound search.
const maxNodes = 200000

// SolveMILP runs branch & bound on the integer-marked variables. If the
// timeout expires, the best incumbent found so far is returned with
// Status DeadlineExceeded (or Infeasible if none was found).
func (p *Problem) SolveMILP(opts MILPOptions) (*Solution, error) {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}

	hasInt := false
	for _, v := range p.vars {
		if v.integer {
			hasInt = true
			break
		}
	}
	if !hasInt {
		return p.Solve()
	}
	p.deadline = deadline
	defer func() { p.deadline = time.Time{} }()

	type node struct {
		lb, ub map[Var]float64
	}
	cloneBounds := func(m map[Var]float64) map[Var]float64 {
		c := make(map[Var]float64, len(m)+1)
		for k, v := range m {
			c[k] = v
		}
		return c
	}

	var incumbent *Solution
	better := func(obj float64) bool {
		if incumbent == nil {
			return true
		}
		if p.sense == Maximize {
			return obj > incumbent.Objective+1e-9
		}
		return obj < incumbent.Objective-1e-9
	}
	bounds := func(obj float64) bool { // can this relaxation beat the incumbent?
		if incumbent == nil {
			return true
		}
		if p.sense == Maximize {
			return obj > incumbent.Objective+1e-9
		}
		return obj < incumbent.Objective-1e-9
	}

	stack := []node{{lb: map[Var]float64{}, ub: map[Var]float64{}}}
	nodes := 0
	timedOut := false
	for len(stack) > 0 {
		if nodes >= maxNodes {
			timedOut = true
			break
		}
		if !deadline.IsZero() && nodes%16 == 0 && nodes > 0 && time.Now().After(deadline) {
			timedOut = true
			break
		}
		nodes++
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if nodes == 1 {
			// The root relaxation always runs to completion (the bound
			// a budgeted exact solver would report); the deadline
			// governs the branch-and-bound search after it.
			p.deadline = time.Time{}
		} else {
			p.deadline = deadline
		}
		sol, err := p.solveRelaxation(nd.lb, nd.ub)
		if err != nil {
			if errors.Is(err, ErrNumerical) {
				continue // prune the numerically troubled subtree
			}
			if errors.Is(err, ErrDeadline) {
				timedOut = true
				break
			}
			return nil, err
		}
		if sol.Status == Infeasible {
			continue
		}
		if sol.Status == Unbounded {
			return &Solution{Status: Unbounded}, nil
		}
		if !bounds(sol.Objective) {
			continue
		}
		// Find the most fractional integer variable.
		branch := Var(-1)
		worst := intFeasTol
		for i, v := range p.vars {
			if !v.integer {
				continue
			}
			x := sol.Values[i]
			frac := math.Abs(x - math.Round(x))
			if frac > worst {
				worst = frac
				branch = Var(i)
			}
		}
		if branch < 0 {
			// Integer feasible: round and accept.
			if better(sol.Objective) {
				vals := make([]float64, len(sol.Values))
				copy(vals, sol.Values)
				for i, v := range p.vars {
					if v.integer {
						vals[i] = math.Round(vals[i])
					}
				}
				incumbent = &Solution{Status: Optimal, Objective: sol.Objective, Values: vals}
			}
			continue
		}
		x := sol.Values[branch]
		down := node{lb: cloneBounds(nd.lb), ub: cloneBounds(nd.ub)}
		down.ub[branch] = math.Floor(x)
		up := node{lb: cloneBounds(nd.lb), ub: cloneBounds(nd.ub)}
		up.lb[branch] = math.Ceil(x)
		// Explore the side closer to the relaxation value first
		// (pushed last, popped first).
		if x-math.Floor(x) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}

	if incumbent == nil {
		if timedOut {
			return &Solution{Status: DeadlineExceeded}, nil
		}
		return &Solution{Status: Infeasible}, nil
	}
	if timedOut {
		incumbent.Status = DeadlineExceeded
	}
	return incumbent, nil
}
