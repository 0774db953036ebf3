package core

import (
	"fmt"

	"farm/internal/almanac"
	"farm/internal/netmodel"
)

// scope is one activation, with sema's scope rules: a handler's binding
// or a function's parameters, and the locals of the blocks still open,
// each visible to the end of its block; below them, in a handler only,
// the current state's variables and the machine environment. A function
// sees its parameters and its locals and nothing else.
type scope struct {
	seed   *Seed
	fn     bool
	locals map[string]Value
	open   []string // locals declared in the blocks still open
}

func newScope(s *Seed, bind map[string]Value, fn bool) *scope {
	locals := bind
	if locals == nil {
		locals = map[string]Value{}
	}
	return &scope{seed: s, fn: fn, locals: locals}
}

// lookup resolves a variable: locals, then (in a handler) state
// variables, then machine variables.
func (sc *scope) lookup(name string) (Value, bool) {
	if v, ok := sc.locals[name]; ok {
		return v, true
	}
	if sc.fn {
		return nil, false
	}
	if v, ok := sc.seed.stateVars[sc.seed.state][name]; ok {
		return v, true
	}
	v, ok := sc.seed.env[name]
	return v, ok
}

// assign writes a variable where lookup finds it.
func (sc *scope) assign(name string, v Value) error {
	if _, ok := sc.locals[name]; ok {
		sc.locals[name] = v
		return nil
	}
	if !sc.fn {
		if sv := sc.seed.stateVars[sc.seed.state]; sv != nil {
			if _, ok := sv[name]; ok {
				sv[name] = v
				return nil
			}
		}
		if _, ok := sc.seed.env[name]; ok {
			sc.seed.env[name] = v
			return nil
		}
	}
	return fmt.Errorf("core: assignment to undeclared variable %s", name)
}

func (sc *scope) declare(name string, v Value) {
	sc.locals[name] = v
	sc.open = append(sc.open, name)
}

// close forgets the locals declared since mark, when their block ends.
func (sc *scope) close(mark int) {
	for _, n := range sc.open[mark:] {
		delete(sc.locals, n)
	}
	sc.open = sc.open[:mark]
}

type execResult struct {
	kind    ctrl
	val     Value
	transit string
}

// exec runs body as a block: the locals it declares end with it.
func (s *Seed) exec(body []almanac.Stmt, sc *scope) (execResult, error) {
	defer sc.close(len(sc.open))
	for _, stmt := range body {
		s.actions++
		switch st := stmt.(type) {
		case *almanac.AssignStmt:
			if err := s.execAssign(st, sc); err != nil {
				return execResult{}, err
			}
		case *almanac.DeclStmt:
			var v Value
			if st.Var.Init != nil {
				var err error
				v, err = s.eval(st.Var.Init, sc)
				if err != nil {
					return execResult{}, err
				}
			} else {
				v = zeroValue(st.Var.Type)
			}
			sc.declare(st.Var.Name, v)
		case *almanac.TransitStmt:
			return execResult{kind: ctrlTransit, transit: st.State}, nil
		case *almanac.ReturnStmt:
			var v Value
			if st.Val != nil {
				var err error
				v, err = s.eval(st.Val, sc)
				if err != nil {
					return execResult{}, err
				}
			}
			return execResult{kind: ctrlReturn, val: v}, nil
		case *almanac.IfStmt:
			cond, err := s.eval(st.Cond, sc)
			if err != nil {
				return execResult{}, err
			}
			b, err := Truthy(cond)
			if err != nil {
				return execResult{}, err
			}
			var res execResult
			if b {
				res, err = s.exec(st.Then, sc)
			} else if len(st.Else) > 0 {
				res, err = s.exec(st.Else, sc)
			}
			if err != nil {
				return execResult{}, err
			}
			if res.kind != ctrlNone {
				return res, nil
			}
		case *almanac.WhileStmt:
			for iter := 0; ; iter++ {
				if iter >= maxWhileIterations {
					return execResult{}, fmt.Errorf("core: while loop exceeded %d iterations (line %d)", maxWhileIterations, st.Line())
				}
				cond, err := s.eval(st.Cond, sc)
				if err != nil {
					return execResult{}, err
				}
				b, err := Truthy(cond)
				if err != nil {
					return execResult{}, err
				}
				if !b {
					break
				}
				res, err := s.exec(st.Body, sc)
				if err != nil {
					return execResult{}, err
				}
				if res.kind != ctrlNone {
					return res, nil
				}
			}
		case *almanac.SendStmt:
			v, err := s.eval(st.Val, sc)
			if err != nil {
				return execResult{}, err
			}
			dest := SendDest{Harvester: st.To.Harvester, Machine: st.To.Machine}
			if st.To.Dst != nil {
				d, err := s.eval(st.To.Dst, sc)
				if err != nil {
					return execResult{}, err
				}
				ds, ok := d.(string)
				if !ok {
					return execResult{}, fmt.Errorf("core: send destination must be a string, got %s", TypeName(d))
				}
				dest.Dst = ds
			}
			s.host.Send(dest, CloneValue(v))
		case *almanac.ExprStmt:
			if _, err := s.eval(st.X, sc); err != nil {
				return execResult{}, err
			}
		default:
			return execResult{}, fmt.Errorf("core: unknown statement %T", stmt)
		}
	}
	return execResult{}, nil
}

func (s *Seed) execAssign(st *almanac.AssignStmt, sc *scope) error {
	val, err := s.eval(st.Val, sc)
	if err != nil {
		return err
	}
	if st.Field != "" {
		// Trigger retuning: y.ival = expr.
		if s.isTrigger(st.Target) {
			if st.Field != "ival" {
				return fmt.Errorf("core: only .ival of trigger %s can be assigned", st.Target)
			}
			ms, ok := AsFloat(val)
			if !ok || ms <= 0 {
				return fmt.Errorf("core: trigger %s.ival must be a positive number, got %s", st.Target, FormatValue(val))
			}
			s.host.SetTriggerInterval(st.Target, ms)
			return nil
		}
		// Struct field assignment.
		cur, ok := sc.lookup(st.Target)
		if !ok {
			return fmt.Errorf("core: assignment to undeclared variable %s", st.Target)
		}
		sv, ok := cur.(StructVal)
		if !ok {
			return fmt.Errorf("core: %s is %s, not a struct", st.Target, TypeName(cur))
		}
		if !sv.Set(st.Field, val) {
			return fmt.Errorf("core: struct %s has no field %s", sv.Type(), st.Field)
		}
		return nil
	}
	// Whole-trigger reassignment: y = Poll { .ival = ..., ... }.
	if s.isTrigger(st.Target) {
		lit, ok := val.(StructVal)
		if !ok {
			return fmt.Errorf("core: trigger %s must be assigned a Poll/Probe value", st.Target)
		}
		ivalV, ok := lit.Get("ival")
		if !ok {
			return fmt.Errorf("core: trigger %s reassignment needs .ival", st.Target)
		}
		ms, ok := AsFloat(ivalV)
		if !ok || ms <= 0 {
			return fmt.Errorf("core: trigger %s.ival must be a positive number", st.Target)
		}
		s.host.SetTriggerInterval(st.Target, ms)
		return nil
	}
	return sc.assign(st.Target, val)
}

func (s *Seed) isTrigger(name string) bool {
	for _, t := range s.machine.Triggers {
		if t.Name == name {
			return true
		}
	}
	return false
}

func (s *Seed) eval(e almanac.Expr, sc *scope) (Value, error) {
	switch ex := e.(type) {
	case *almanac.IntLit:
		return ex.Val, nil
	case *almanac.FloatLit:
		return ex.Val, nil
	case *almanac.StringLit:
		return ex.Val, nil
	case *almanac.BoolLit:
		return ex.Val, nil
	case *almanac.Ident:
		if sc != nil {
			if v, ok := sc.lookup(ex.Name); ok {
				return v, nil
			}
		} else if v, ok := s.env[ex.Name]; ok {
			return v, nil
		}
		return nil, fmt.Errorf("core: undeclared variable %s (line %d)", ex.Name, ex.Line())
	case *almanac.UnaryExpr:
		v, err := s.eval(ex.X, sc)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "not":
			b, err := Truthy(v)
			if err != nil {
				return nil, err
			}
			return !b, nil
		case "-":
			switch x := v.(type) {
			case int64:
				return -x, nil
			case float64:
				return -x, nil
			}
			return nil, fmt.Errorf("core: unary - on %s", TypeName(v))
		}
		return nil, fmt.Errorf("core: unknown unary %q", ex.Op)
	case *almanac.BinaryExpr:
		return s.evalBinary(ex, sc)
	case *almanac.FieldExpr:
		return s.evalField(ex, sc)
	case *almanac.CallExpr:
		return s.evalCall(ex, sc)
	case *almanac.FilterAtom:
		return s.evalFilterAtom(ex, sc)
	case *almanac.StructLit:
		names := make([]string, len(ex.Fields))
		for i, f := range ex.Fields {
			names[i] = f.Name
		}
		sv := StructVal{L: LayoutOf(ex.TypeName, names), V: make([]Value, len(names))}
		for i, f := range ex.Fields {
			v, err := s.eval(f.Val, sc)
			if err != nil {
				return nil, err
			}
			sv.V[i] = v
		}
		return sv, nil
	case *almanac.ListLit:
		out := make(List, 0, len(ex.Elems))
		for _, el := range ex.Elems {
			v, err := s.eval(el, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown expression %T", e)
}

// evalFilterAtom builds a filter value from a runtime-evaluated atom
// argument (which, unlike deploy-time placement filters, may contain
// arbitrary expressions — e.g. `port list_get(hitters, i)`).
func (s *Seed) evalFilterAtom(ex *almanac.FilterAtom, sc *scope) (Value, error) {
	if ex.Any {
		if ex.Field != "port" {
			return nil, fmt.Errorf("core: ANY is only valid with port (line %d)", ex.Line())
		}
		return FilterVal{PortAny: true}, nil
	}
	arg, err := s.eval(ex.Arg, sc)
	if err != nil {
		return nil, err
	}
	var c almanac.Const
	switch x := arg.(type) {
	case int64:
		c = almanac.NumConst(float64(x))
	case float64:
		c = almanac.NumConst(x)
	case string:
		c = almanac.StrConst(x)
	default:
		return nil, fmt.Errorf("core: filter field %s: unsupported argument %s (line %d)", ex.Field, TypeName(arg), ex.Line())
	}
	fc, err := almanac.BuildFilterAtom(ex.Field, c)
	if err != nil {
		return nil, fmt.Errorf("core: %w (line %d)", err, ex.Line())
	}
	return FilterVal{F: fc.Filter, PortAny: fc.PortAny}, nil
}

func (s *Seed) evalBinary(ex *almanac.BinaryExpr, sc *scope) (Value, error) {
	// Short-circuit logic.
	if ex.Op == "and" || ex.Op == "or" {
		l, err := s.eval(ex.L, sc)
		if err != nil {
			return nil, err
		}
		// Filter conjunction builds a bigger filter.
		if lf, ok := l.(FilterVal); ok && ex.Op == "and" {
			r, err := s.eval(ex.R, sc)
			if err != nil {
				return nil, err
			}
			rf, ok := r.(FilterVal)
			if !ok {
				return nil, fmt.Errorf("core: filter and %s", TypeName(r))
			}
			lc := almanac.FilterConst(lf.F)
			lc.PortAny = lf.PortAny
			rc := almanac.FilterConst(rf.F)
			rc.PortAny = rf.PortAny
			merged, err := almanac.MergeFilterConsts(lc, rc)
			if err != nil {
				return nil, err
			}
			return FilterVal{F: merged.Filter, PortAny: merged.PortAny}, nil
		}
		lb, err := Truthy(l)
		if err != nil {
			return nil, err
		}
		if ex.Op == "and" && !lb {
			return false, nil
		}
		if ex.Op == "or" && lb {
			return true, nil
		}
		r, err := s.eval(ex.R, sc)
		if err != nil {
			return nil, err
		}
		return Truthy(r)
	}

	l, err := s.eval(ex.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := s.eval(ex.R, sc)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case "==":
		return Equal(l, r), nil
	case "<>":
		return !Equal(l, r), nil
	}
	// String concatenation.
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok && ex.Op == "+" {
			return ls + rs, nil
		}
	}
	// List concatenation.
	if ll, ok := l.(List); ok {
		if rl, ok := r.(List); ok && ex.Op == "+" {
			out := make(List, 0, len(ll)+len(rl))
			out = append(out, ll...)
			return append(out, rl...), nil
		}
	}
	lf, lok := AsFloat(l)
	rf, rok := AsFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("core: %s %s %s is not defined (line %d)", TypeName(l), ex.Op, TypeName(r), ex.Line())
	}
	// Arithmetic stays in int64 when both operands are longs; the
	// float semantics (and division-by-zero) come from the shared
	// almanac operator table so EvalConst, the interpreter, and the
	// register VM cannot drift.
	if res, ok, err := almanac.NumArith(ex.Op, lf, rf); ok {
		if err != nil {
			return nil, fmt.Errorf("core: %v (line %d)", err, ex.Line())
		}
		li, lint := l.(int64)
		ri, rint := r.(int64)
		if lint && rint {
			switch ex.Op {
			case "+":
				return li + ri, nil
			case "-":
				return li - ri, nil
			case "*":
				return li * ri, nil
			case "/":
				return li / ri, nil
			}
		}
		return res, nil
	}
	if res, ok := almanac.NumCompare(ex.Op, lf, rf); ok {
		return res, nil
	}
	return nil, fmt.Errorf("core: unknown operator %q", ex.Op)
}

func (s *Seed) evalField(ex *almanac.FieldExpr, sc *scope) (Value, error) {
	x, err := s.eval(ex.X, sc)
	if err != nil {
		return nil, err
	}
	switch v := x.(type) {
	case StructVal:
		if f, ok := v.Get(ex.Field); ok {
			return f, nil
		}
		return nil, fmt.Errorf("core: struct %s has no field %s (line %d)", v.Type(), ex.Field, ex.Line())
	case ResourcesVal:
		r, ok := netmodel.ResByName(ex.Field)
		if !ok {
			return nil, fmt.Errorf("core: resources have no field %s (line %d)", ex.Field, ex.Line())
		}
		return v[r], nil
	case *MapVal:
		return v.field(ex.Field).box(), nil
	case PacketVal:
		return packetField(v, ex.Field, ex.Line())
	}
	return nil, fmt.Errorf("core: %s has no fields (line %d)", TypeName(x), ex.Line())
}

func packetField(p PacketVal, field string, line int) (Value, error) {
	switch field {
	case "srcIP":
		return p.SrcIP.String(), nil
	case "dstIP":
		return p.DstIP.String(), nil
	case "srcPort":
		return int64(p.SrcPort), nil
	case "dstPort":
		return int64(p.DstPort), nil
	case "proto":
		return dataplaneProtoName(p), nil
	case "size":
		return int64(p.Size), nil
	case "syn":
		return p.Flags.Has(flagSYN), nil
	case "ack":
		return p.Flags.Has(flagACK), nil
	case "fin":
		return p.Flags.Has(flagFIN), nil
	case "rst":
		return p.Flags.Has(flagRST), nil
	case "dnsResponse":
		return p.App.DNSResponse, nil
	case "dnsQName":
		return p.App.DNSQName, nil
	case "sshAuthFail":
		return p.App.SSHAuthFail, nil
	case "httpPartial":
		return p.App.HTTPPartial, nil
	case "flow":
		return dataplanePacket(p).Flow().String(), nil
	}
	return nil, fmt.Errorf("core: packet has no field %s (line %d)", field, line)
}

// evalCall dispatches user functions and the runtime library
// (List. 1 of the paper plus list/map/math helpers the Tab. I tasks use).
func (s *Seed) evalCall(ex *almanac.CallExpr, sc *scope) (Value, error) {
	// User-defined auxiliary functions shadow nothing: builtins win to
	// keep the runtime library stable.
	if fn, ok := builtins[ex.Name]; ok {
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := s.eval(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return fn(s.host, args, ex.Line())
	}
	if fd, ok := s.funcs[ex.Name]; ok {
		if len(ex.Args) != len(fd.Params) {
			return nil, fmt.Errorf("core: %s expects %d arguments, got %d (line %d)", ex.Name, len(fd.Params), len(ex.Args), ex.Line())
		}
		bind := map[string]Value{}
		for i, p := range fd.Params {
			v, err := s.eval(ex.Args[i], sc)
			if err != nil {
				return nil, err
			}
			bind[p.Name] = v
		}
		if s.depth >= maxCallDepth {
			return nil, errCallDepth(ex.Name, ex.Line())
		}
		s.depth++
		res, err := s.exec(fd.Body, newScope(s, bind, true))
		s.depth--
		if err != nil {
			return nil, err
		}
		if res.kind == ctrlTransit {
			return nil, fmt.Errorf("core: transit inside function %s is not allowed", ex.Name)
		}
		return res.val, nil
	}
	return nil, fmt.Errorf("core: unknown function %s (line %d)", ex.Name, ex.Line())
}

func dataplaneProtoName(p PacketVal) string { return p.Proto.String() }
