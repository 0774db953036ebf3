package almanac

import (
	"fmt"
	"net/netip"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/poly"
)

// --- Constant evaluation (deploy-time expression resolution) ---

// ConstKind tags a Const value.
type ConstKind int

const (
	ConstNum ConstKind = iota + 1
	ConstStr
	ConstBool
	ConstFilter
)

// Const is a deployment-time constant: the value of an expression after
// external variables are bound (§III-B: "each ex inside Π_i fully
// evaluated to constants").
type Const struct {
	Kind    ConstKind
	Num     float64
	Str     string
	Bool    bool
	Filter  dataplane.Filter
	PortAny bool // the filter came from `port ANY`
}

// NumConst builds a numeric constant.
func NumConst(v float64) Const { return Const{Kind: ConstNum, Num: v} }

// StrConst builds a string constant.
func StrConst(s string) Const { return Const{Kind: ConstStr, Str: s} }

// BoolConst builds a boolean constant.
func BoolConst(b bool) Const { return Const{Kind: ConstBool, Bool: b} }

// FilterConst builds a filter constant.
func FilterConst(f dataplane.Filter) Const { return Const{Kind: ConstFilter, Filter: f} }

// AnalysisError reports a static-analysis failure.
type AnalysisError struct {
	Line int
	Msg  string
}

func (e *AnalysisError) Error() string {
	return fmt.Sprintf("almanac: analysis: line %d: %s", e.Line, e.Msg)
}

func anaErr(line int, format string, args ...any) *AnalysisError {
	return &AnalysisError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// EvalConst evaluates an expression to a deployment-time constant. env
// maps variable names (typically external variables and machine-level
// initializers) to constants.
func EvalConst(e Expr, env map[string]Const) (Const, error) {
	switch ex := e.(type) {
	case *IntLit:
		return NumConst(float64(ex.Val)), nil
	case *FloatLit:
		return NumConst(ex.Val), nil
	case *StringLit:
		return StrConst(ex.Val), nil
	case *BoolLit:
		return BoolConst(ex.Val), nil
	case *Ident:
		if v, ok := env[ex.Name]; ok {
			return v, nil
		}
		return Const{}, anaErr(ex.Line(), "variable %s is not a deployment-time constant", ex.Name)
	case *UnaryExpr:
		v, err := EvalConst(ex.X, env)
		if err != nil {
			return Const{}, err
		}
		switch ex.Op {
		case "-":
			if v.Kind != ConstNum {
				return Const{}, anaErr(ex.Line(), "unary - needs a number")
			}
			return NumConst(-v.Num), nil
		case "not":
			if v.Kind != ConstBool {
				return Const{}, anaErr(ex.Line(), "not needs a bool")
			}
			return BoolConst(!v.Bool), nil
		}
		return Const{}, anaErr(ex.Line(), "unknown unary operator %q", ex.Op)
	case *FilterAtom:
		return evalFilterAtom(ex, env)
	case *BinaryExpr:
		l, err := EvalConst(ex.L, env)
		if err != nil {
			return Const{}, err
		}
		r, err := EvalConst(ex.R, env)
		if err != nil {
			return Const{}, err
		}
		return evalConstBinary(ex, l, r)
	}
	return Const{}, anaErr(e.Line(), "expression is not a deployment-time constant")
}

func evalConstBinary(ex *BinaryExpr, l, r Const) (Const, error) {
	if ex.Op == "and" && l.Kind == ConstFilter && r.Kind == ConstFilter {
		merged, err := mergeFilters(l, r)
		if err != nil {
			return Const{}, anaErr(ex.Line(), "%v", err)
		}
		return merged, nil
	}
	if l.Kind == ConstNum && r.Kind == ConstNum {
		if res, ok, err := NumArith(ex.Op, l.Num, r.Num); ok {
			if err != nil {
				return Const{}, anaErr(ex.Line(), "%v", err)
			}
			return NumConst(res), nil
		}
		if res, ok := NumCompare(ex.Op, l.Num, r.Num); ok {
			return BoolConst(res), nil
		}
	}
	if l.Kind == ConstBool && r.Kind == ConstBool {
		if res, ok := BoolLogic(ex.Op, l.Bool, r.Bool); ok {
			return BoolConst(res), nil
		}
	}
	if l.Kind == ConstStr && r.Kind == ConstStr {
		if res, ok := StrCompare(ex.Op, l.Str, r.Str); ok {
			return BoolConst(res), nil
		}
		if ex.Op == "+" {
			return StrConst(l.Str + r.Str), nil
		}
	}
	return Const{}, anaErr(ex.Line(), "operator %q not applicable to these operand kinds", ex.Op)
}

func evalFilterAtom(a *FilterAtom, env map[string]Const) (Const, error) {
	if a.Any {
		if a.Field != "port" {
			return Const{}, anaErr(a.Line(), "ANY is only valid with port")
		}
		return Const{Kind: ConstFilter, PortAny: true}, nil
	}
	arg, err := EvalConst(a.Arg, env)
	if err != nil {
		return Const{}, err
	}
	c, err := BuildFilterAtom(a.Field, arg)
	if err != nil {
		return Const{}, anaErr(a.Line(), "%v", err)
	}
	return c, nil
}

// BuildFilterAtom constructs a single-field filter constant from an
// evaluated argument. Shared by deploy-time analysis and the seed
// runtime (whose atom arguments may be arbitrary expressions).
func BuildFilterAtom(field string, arg Const) (Const, error) {
	var f dataplane.Filter
	switch field {
	case "srcIP", "dstIP":
		if arg.Kind != ConstStr {
			return Const{}, fmt.Errorf("%s needs a string address", field)
		}
		pfx, err := parsePrefix(arg.Str)
		if err != nil {
			return Const{}, fmt.Errorf("%s: %v", field, err)
		}
		if field == "srcIP" {
			f.SrcPrefix = pfx
		} else {
			f.DstPrefix = pfx
		}
	case "srcPort", "dstPort", "port":
		if arg.Kind != ConstNum {
			return Const{}, fmt.Errorf("%s needs a number", field)
		}
		n := uint16(arg.Num)
		switch field {
		case "srcPort":
			f.SrcPort = n
		case "dstPort":
			f.DstPort = n
		case "port":
			f.InPort = int(arg.Num)
		}
	case "proto":
		switch {
		case arg.Kind == ConstStr && arg.Str == "tcp":
			f.Proto = dataplane.ProtoTCP
		case arg.Kind == ConstStr && arg.Str == "udp":
			f.Proto = dataplane.ProtoUDP
		case arg.Kind == ConstStr && arg.Str == "icmp":
			f.Proto = dataplane.ProtoICMP
		case arg.Kind == ConstNum:
			f.Proto = dataplane.Proto(arg.Num)
		default:
			return Const{}, fmt.Errorf("proto needs tcp/udp/icmp or a protocol number")
		}
	default:
		return Const{}, fmt.Errorf("unknown filter field %s", field)
	}
	return FilterConst(f), nil
}

func parsePrefix(s string) (netip.Prefix, error) {
	if pfx, err := netip.ParsePrefix(s); err == nil {
		return pfx, nil
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("bad address %q", s)
	}
	return netip.PrefixFrom(addr, addr.BitLen()), nil
}

// MergeFilterConsts conjoins two filter constants ("f1 and f2"),
// rejecting conflicting field constraints. Exposed for the runtime's
// filter-expression evaluation.
func MergeFilterConsts(l, r Const) (Const, error) { return mergeFilters(l, r) }

func mergeFilters(l, r Const) (Const, error) {
	out := l
	out.PortAny = l.PortAny || r.PortAny
	set := func(name string, dst, src any) error {
		return fmt.Errorf("conflicting %s in filter conjunction", name)
	}
	f := &out.Filter
	g := r.Filter
	if g.SrcPrefix.IsValid() {
		if f.SrcPrefix.IsValid() && f.SrcPrefix != g.SrcPrefix {
			return Const{}, set("srcIP", f.SrcPrefix, g.SrcPrefix)
		}
		f.SrcPrefix = g.SrcPrefix
	}
	if g.DstPrefix.IsValid() {
		if f.DstPrefix.IsValid() && f.DstPrefix != g.DstPrefix {
			return Const{}, set("dstIP", f.DstPrefix, g.DstPrefix)
		}
		f.DstPrefix = g.DstPrefix
	}
	if g.SrcPort != 0 {
		if f.SrcPort != 0 && f.SrcPort != g.SrcPort {
			return Const{}, set("srcPort", f.SrcPort, g.SrcPort)
		}
		f.SrcPort = g.SrcPort
	}
	if g.DstPort != 0 {
		if f.DstPort != 0 && f.DstPort != g.DstPort {
			return Const{}, set("dstPort", f.DstPort, g.DstPort)
		}
		f.DstPort = g.DstPort
	}
	if g.Proto != dataplane.ProtoAny {
		if f.Proto != dataplane.ProtoAny && f.Proto != g.Proto {
			return Const{}, set("proto", f.Proto, g.Proto)
		}
		f.Proto = g.Proto
	}
	if g.InPort != 0 {
		if f.InPort != 0 && f.InPort != g.InPort {
			return Const{}, set("port", f.InPort, g.InPort)
		}
		f.InPort = g.InPort
	}
	if g.FlagsSet != 0 {
		f.FlagsSet |= g.FlagsSet
	}
	return out, nil
}

// --- Utility analysis (κ and ε interpretation, §III-B-b) ---

// AnalyzeUtility converts a util callback into the canonical
// piecewise-linear form: a set of cases, each with linear constraints
// C^s(r) >= 0 and a min-of-linear utility u^s(r). Resource fields
// (res.vCPU, ...) become polynomial variables; other identifiers are
// resolved from env. Returns an empty single-constant-zero utility when
// ut is nil (a state without util contributes nothing).
func AnalyzeUtility(ut *UtilDecl, env map[string]Const) (poly.Utility, error) {
	if ut == nil {
		return poly.Utility{{Util: poly.MinOf(poly.Constant(0))}}, nil
	}
	a := &utilAnalyzer{param: ut.Param, env: env}
	cases, err := a.stmts(ut.Body, [][]poly.Linear{{}})
	if err != nil {
		return nil, err
	}
	if len(cases) == 0 {
		return nil, anaErr(ut.DeclLine, "util has no reachable return")
	}
	return cases, nil
}

type utilAnalyzer struct {
	param string
	env   map[string]Const
}

// stmts processes a statement list under a DNF context (each element is
// one conjunction of constraints) and returns the produced cases.
func (a *utilAnalyzer) stmts(body []Stmt, ctx [][]poly.Linear) (poly.Utility, error) {
	var out poly.Utility
	for _, s := range body {
		switch st := s.(type) {
		case *ReturnStmt:
			alts, err := a.retExpr(st.Val)
			if err != nil {
				return nil, err
			}
			for _, term := range ctx {
				for _, alt := range alts {
					out = append(out, poly.Case{Constraints: cloneTerm(term), Util: alt})
				}
			}
			return out, nil // statements after return are unreachable
		case *IfStmt:
			condDNF, err := a.cond(st.Cond)
			if err != nil {
				return nil, err
			}
			thenCtx := andDNF(ctx, condDNF)
			thenCases, err := a.stmts(st.Then, thenCtx)
			if err != nil {
				return nil, err
			}
			out = append(out, thenCases...)
			negDNF, err := a.negate(st.Cond)
			if err != nil {
				return nil, err
			}
			elseCtx := andDNF(ctx, negDNF)
			if len(st.Else) > 0 {
				elseCases, err := a.stmts(st.Else, elseCtx)
				if err != nil {
					return nil, err
				}
				out = append(out, elseCases...)
				// Both branches handled; continuing statements run under
				// the union of fallthrough contexts, which for util's
				// restricted forms we approximate by stopping here when
				// both branches returned. Detect: if both produced
				// cases and there are trailing statements, continue
				// under the original ctx minus handled... util's
				// grammar keeps this simple: continue with elseCtx.
				ctx = elseCtx
			} else {
				ctx = elseCtx
			}
		default:
			return nil, anaErr(s.Line(), "util allows only if-then-else and return")
		}
	}
	return out, nil
}

func cloneTerm(t []poly.Linear) []poly.Linear {
	out := make([]poly.Linear, len(t))
	copy(out, t)
	return out
}

func andDNF(a, b [][]poly.Linear) [][]poly.Linear {
	out := make([][]poly.Linear, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			term := make([]poly.Linear, 0, len(x)+len(y))
			term = append(term, x...)
			term = append(term, y...)
			out = append(out, term)
		}
	}
	return out
}

// cond converts a boolean expression into DNF over linear constraints
// (each constraint polynomial must be >= 0).
func (a *utilAnalyzer) cond(e Expr) ([][]poly.Linear, error) {
	switch ex := e.(type) {
	case *BoolLit:
		if ex.Val {
			return [][]poly.Linear{{}}, nil
		}
		return nil, nil
	case *BinaryExpr:
		switch ex.Op {
		case "and":
			l, err := a.cond(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.cond(ex.R)
			if err != nil {
				return nil, err
			}
			return andDNF(l, r), nil
		case "or":
			l, err := a.cond(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.cond(ex.R)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		case ">=", "<=", "==", ">", "<":
			l, err := a.lin(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.lin(ex.R)
			if err != nil {
				return nil, err
			}
			switch ex.Op {
			case ">=", ">": // strictness closed for LP purposes
				return [][]poly.Linear{{l.Sub(r)}}, nil
			case "<=", "<":
				return [][]poly.Linear{{r.Sub(l)}}, nil
			case "==":
				return [][]poly.Linear{{l.Sub(r), r.Sub(l)}}, nil
			}
		}
		return nil, anaErr(ex.Line(), "operator %q not supported in util conditions", ex.Op)
	}
	return nil, anaErr(e.Line(), "unsupported util condition form")
}

// negate returns the DNF of the (closed) complement of e.
func (a *utilAnalyzer) negate(e Expr) ([][]poly.Linear, error) {
	switch ex := e.(type) {
	case *BoolLit:
		if ex.Val {
			return nil, nil
		}
		return [][]poly.Linear{{}}, nil
	case *BinaryExpr:
		switch ex.Op {
		case "and": // ¬(A∧B) = ¬A ∨ ¬B
			l, err := a.negate(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.negate(ex.R)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		case "or": // ¬(A∨B) = ¬A ∧ ¬B
			l, err := a.negate(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.negate(ex.R)
			if err != nil {
				return nil, err
			}
			return andDNF(l, r), nil
		case ">=", ">":
			l, err := a.lin(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.lin(ex.R)
			if err != nil {
				return nil, err
			}
			return [][]poly.Linear{{r.Sub(l)}}, nil // closed complement
		case "<=", "<":
			l, err := a.lin(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := a.lin(ex.R)
			if err != nil {
				return nil, err
			}
			return [][]poly.Linear{{l.Sub(r)}}, nil
		case "==":
			// The complement of equality is not convex; approximate
			// with the whole space (no constraint), which only widens
			// the else-branch's applicability.
			return [][]poly.Linear{{}}, nil
		}
	}
	return nil, anaErr(e.Line(), "cannot negate this util condition")
}

// retExpr converts a return expression into max-of-min normal form:
// a slice of alternatives, each a MinExpr. The optimizer picks the best
// alternative (max), and within one the utility is the min of terms.
func (a *utilAnalyzer) retExpr(e Expr) ([]poly.MinExpr, error) {
	if e == nil {
		return []poly.MinExpr{poly.MinOf(poly.Constant(0))}, nil
	}
	switch ex := e.(type) {
	case *CallExpr:
		switch ex.Name {
		case "min":
			// min distributes over max: min(max(A),X) = max over A of min(a,X).
			alts := []poly.MinExpr{{}}
			for _, arg := range ex.Args {
				argAlts, err := a.retExpr(arg)
				if err != nil {
					return nil, err
				}
				var next []poly.MinExpr
				for _, acc := range alts {
					for _, aa := range argAlts {
						next = append(next, acc.Merge(aa))
					}
				}
				alts = next
			}
			return alts, nil
		case "max":
			var alts []poly.MinExpr
			for _, arg := range ex.Args {
				argAlts, err := a.retExpr(arg)
				if err != nil {
					return nil, err
				}
				alts = append(alts, argAlts...)
			}
			return alts, nil
		}
		return nil, anaErr(ex.Line(), "util may only call min and max")
	case *BinaryExpr:
		if ex.Op == "+" || ex.Op == "-" {
			// Addition of a pure linear shifts every term.
			if lin, err := a.lin(ex.R); err == nil {
				alts, err2 := a.retExpr(ex.L)
				if err2 != nil {
					return nil, err2
				}
				if ex.Op == "-" {
					lin = lin.Scale(-1)
				}
				for i := range alts {
					alts[i] = alts[i].Add(lin)
				}
				return alts, nil
			}
			if lin, err := a.lin(ex.L); err == nil && ex.Op == "+" {
				alts, err2 := a.retExpr(ex.R)
				if err2 != nil {
					return nil, err2
				}
				for i := range alts {
					alts[i] = alts[i].Add(lin)
				}
				return alts, nil
			}
		}
		if ex.Op == "*" || ex.Op == "/" {
			// Scaling by a nonnegative constant preserves min/max shape.
			if c, err := a.lin(ex.R); err == nil && c.IsConstant() {
				k := c.Const
				if ex.Op == "/" {
					if k == 0 {
						return nil, anaErr(ex.Line(), "division by zero in util")
					}
					k = 1 / k
				}
				alts, err2 := a.retExpr(ex.L)
				if err2 != nil {
					return nil, err2
				}
				for i := range alts {
					scaled, err3 := alts[i].Scale(k)
					if err3 != nil {
						return nil, anaErr(ex.Line(), "%v", err3)
					}
					alts[i] = scaled
				}
				return alts, nil
			}
		}
	}
	lin, err := a.lin(e)
	if err != nil {
		return nil, err
	}
	return []poly.MinExpr{poly.MinOf(lin)}, nil
}

// lin converts an expression into a linear polynomial over resource
// variables.
func (a *utilAnalyzer) lin(e Expr) (poly.Linear, error) {
	switch ex := e.(type) {
	case *IntLit:
		return poly.Constant(float64(ex.Val)), nil
	case *FloatLit:
		return poly.Constant(ex.Val), nil
	case *Ident:
		if v, ok := a.env[ex.Name]; ok {
			if v.Kind != ConstNum {
				return poly.Linear{}, anaErr(ex.Line(), "variable %s is not numeric", ex.Name)
			}
			return poly.Constant(v.Num), nil
		}
		return poly.Linear{}, anaErr(ex.Line(), "unknown identifier %s in util (only the resource parameter and constants are allowed)", ex.Name)
	case *FieldExpr:
		if !readsResource(ex, a.param) {
			return poly.Linear{}, anaErr(ex.Line(), "only %s.FIELD or res().FIELD may appear in util", a.param)
		}
		r, ok := netmodel.ResByName(ex.Field)
		if !ok {
			return poly.Linear{}, anaErr(ex.Line(), "unknown resource %s", ex.Field)
		}
		return poly.Var(r), nil
	case *UnaryExpr:
		if ex.Op == "-" {
			v, err := a.lin(ex.X)
			if err != nil {
				return poly.Linear{}, err
			}
			return v.Scale(-1), nil
		}
	case *BinaryExpr:
		l, err := a.lin(ex.L)
		if err != nil {
			return poly.Linear{}, err
		}
		r, err := a.lin(ex.R)
		if err != nil {
			return poly.Linear{}, err
		}
		switch ex.Op {
		case "+":
			return l.Add(r), nil
		case "-":
			return l.Sub(r), nil
		case "*":
			p, err := l.Mul(r)
			if err != nil {
				return poly.Linear{}, anaErr(ex.Line(), "%v", err)
			}
			return p, nil
		case "/":
			p, err := l.Div(r)
			if err != nil {
				return poly.Linear{}, anaErr(ex.Line(), "%v", err)
			}
			return p, nil
		}
	}
	return poly.Linear{}, anaErr(e.Line(), "expression is not linear in resources")
}

// --- Poll-variable analysis (§III-B-c) ---

// PollInfo is the static analysis of one trigger variable: its polling
// rate as a linear polynomial of allocated resources (the paper requires
// the inverse of y.ival to be linear), and the unevaluated subject
// expression, resolved against externals at deploy time.
type PollInfo struct {
	Name  string
	TType TriggerType
	// RatePerSec(r): polls (or minimum probes) per second. Constant if
	// ival doesn't depend on resources.
	RatePerSec poly.Linear
	// WhatExpr is the subject filter expression (nil for time triggers).
	WhatExpr Expr
	// What is the evaluated subject (set when AnalyzePolls is given an
	// environment that can resolve it).
	What Const
}

// IvalMillisAt evaluates the polling interval in milliseconds at a
// concrete resource allocation.
func (pi PollInfo) IvalMillisAt(res netmodel.Vector) (float64, error) {
	rate := pi.RatePerSec.Eval(res)
	if rate <= 0 {
		return 0, fmt.Errorf("almanac: trigger %s: non-positive poll rate %g at %v", pi.Name, rate, res)
	}
	return 1000 / rate, nil
}

// AnalyzePolls extracts PollInfo for every trigger variable of the
// machine. Intervals (.ival and time trigger initializers) are in
// milliseconds.
func AnalyzePolls(cm *CompiledMachine, env map[string]Const) ([]PollInfo, error) {
	a := &utilAnalyzer{param: "\x00none", env: env}
	var out []PollInfo
	for _, td := range cm.Triggers {
		pi := PollInfo{Name: td.Name, TType: td.TType}
		var ivalExpr Expr
		switch init := td.Init.(type) {
		case *StructLit:
			for _, f := range init.Fields {
				switch f.Name {
				case "ival":
					ivalExpr = f.Val
				case "what":
					pi.WhatExpr = f.Val
				default:
					return nil, anaErr(init.Line(), "trigger %s: unknown field .%s", td.Name, f.Name)
				}
			}
		case nil:
			return nil, anaErr(td.DeclLine, "trigger %s has no initializer", td.Name)
		default:
			if td.TType != TrigTime {
				return nil, anaErr(td.DeclLine, "trigger %s: poll/probe need a Poll{...}/Probe{...} initializer", td.Name)
			}
			ivalExpr = td.Init
		}
		if ivalExpr == nil {
			return nil, anaErr(td.DeclLine, "trigger %s: missing .ival", td.Name)
		}
		rate, err := rateFromIval(a, ivalExpr)
		if err != nil {
			return nil, err
		}
		pi.RatePerSec = rate
		if pi.WhatExpr != nil && env != nil {
			what, err := EvalConst(pi.WhatExpr, env)
			if err == nil {
				pi.What = what
			}
		}
		out = append(out, pi)
	}
	return out, nil
}

// rateFromIval converts an interval expression (milliseconds) into a
// polls-per-second polynomial. Supported forms: linear-constant ival
// (rate = 1000/c) and const/linear ival (rate = linear*1000/const),
// which is the paper's "inverse of y.ival is linear" requirement.
func rateFromIval(a *utilAnalyzer, ivalExpr Expr) (poly.Linear, error) {
	// Resource references inside ival use res().FIELD; allow the util
	// analyzer's lin() to resolve them.
	saved := a.param
	a.param = "res"
	defer func() { a.param = saved }()

	if lin, err := a.lin(ivalExpr); err == nil {
		if !lin.IsConstant() {
			return poly.Linear{}, anaErr(ivalExpr.Line(), "ival linear in resources makes the rate non-linear; use const/linear form")
		}
		if lin.Const <= 0 {
			return poly.Linear{}, anaErr(ivalExpr.Line(), "ival must be positive, got %g", lin.Const)
		}
		return poly.Constant(1000 / lin.Const), nil
	}
	if bin, ok := ivalExpr.(*BinaryExpr); ok && bin.Op == "/" {
		num, err := a.lin(bin.L)
		if err != nil {
			return poly.Linear{}, err
		}
		if !num.IsConstant() || num.Const <= 0 {
			return poly.Linear{}, anaErr(ivalExpr.Line(), "ival numerator must be a positive constant")
		}
		den, err := a.lin(bin.R)
		if err != nil {
			return poly.Linear{}, err
		}
		return den.Scale(1000 / num.Const), nil
	}
	return poly.Linear{}, anaErr(ivalExpr.Line(), "unsupported ival form (need constant or const/linear)")
}
