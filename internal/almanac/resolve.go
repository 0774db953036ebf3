package almanac

import "farm/internal/netmodel"

// Name resolution: every name a machine's code reads or assigns, and
// every state a handler transits to, is resolved once, in lexical block
// scope, and one that does not resolve is a SemaError at its line. The scope is a stack of declarations the
// way go/parser keeps one (openScope/closeScope): a block opens where
// it starts and, when it ends, forgets the locals it declared. The rules:
//
//   - a local is visible from its declaration to the end of its block;
//   - a declaration, binding or parameter may not reuse a visible name,
//     whatever it names: a local, a binding, a parameter, a state
//     variable, a machine variable or a trigger;
//   - a handler sees its binding, its locals, its state's variables, the
//     machine variables and the triggers, and a trigger can only be
//     assigned, never read;
//   - a function sees only its parameters and its locals;
//   - a machine variable's initialiser sees the machine variables
//     declared before it, a state variable's every machine variable and
//     no state variable.
//
// Two checks ride along on the same walk: a resource read (res().X
// anywhere, P.X in a util whose parameter is P, res.X in a trigger's
// initialiser) must name one of the five resources, and arithmetic or an
// ordered comparison may not take a filter.
//
// Lower relies on all of it: every name it meets has one static slot.

// nameKind is what a visible name denotes.
type nameKind uint8

const (
	nameTrigger nameKind = iota + 1
	nameMachineVar
	nameStateVar
	nameBinding
	nameParam
	nameLocal
)

var nameKindWords = [...]string{
	nameTrigger:    "trigger",
	nameMachineVar: "machine variable",
	nameStateVar:   "state variable",
	nameBinding:    "binding",
	nameParam:      "parameter",
	nameLocal:      "local",
}

// scope is the set of names visible at one point of a machine's code.
type scope struct {
	machine string
	where   string // the code being resolved, for messages
	inFunc  bool
	kinds   map[string]nameKind
	open    []string // visible names in declaration order
	states  map[string]bool
}

// resolveNames checks every name cm's handlers, functions and variable
// initialisers use. CompileMachine and DecodeXML call it, so every
// machine that reaches Lower from source or from the wire has passed it.
func resolveNames(cm *CompiledMachine) error {
	s := &scope{machine: cm.Name, kinds: map[string]nameKind{}, states: map[string]bool{}}
	for _, st := range cm.States {
		s.states[st.Name] = true
	}
	for _, t := range cm.Triggers {
		s.where = "trigger " + t.Name
		if err := s.resources(t.Init, "res"); err != nil {
			return err
		}
		s.where = ""
		if err := s.declare(t.Name, nameTrigger, t.DeclLine); err != nil {
			return err
		}
	}
	for i := range cm.Vars {
		v := &cm.Vars[i]
		s.where = "init of " + v.Name
		if err := s.expr(v.Init); err != nil {
			return err
		}
		s.where = ""
		if err := s.declare(v.Name, nameMachineVar, v.DeclLine); err != nil {
			return err
		}
	}
	for si := range cm.States {
		st := &cm.States[si]
		for i := range st.Vars {
			s.where = "state " + st.Name + ": init of " + st.Vars[i].Name
			if err := s.expr(st.Vars[i].Init); err != nil {
				return err
			}
		}
		if st.Util != nil {
			s.where = "state " + st.Name + ": util"
			var err error
			walkStmts(st.Util.Body, func(x Expr) {
				if err == nil {
					err = s.resourceField(x, st.Util.Param)
				}
			})
			if err != nil {
				return err
			}
		}
		s.where = "state " + st.Name
		mark := len(s.open)
		for _, v := range st.Vars {
			if err := s.declare(v.Name, nameStateVar, v.DeclLine); err != nil {
				return err
			}
		}
		for ei := range st.Events {
			ev := &st.Events[ei]
			var bind string
			switch ev.Trigger.Kind {
			case TrigOnVar:
				if s.kinds[ev.Trigger.VarName] != nameTrigger {
					return s.errorf(ev.DeclLine, "event references undeclared trigger variable %s", ev.Trigger.VarName)
				}
				bind = ev.Trigger.AsName
			case TrigOnRecv:
				bind = ev.Trigger.RecvVar
			}
			evMark := len(s.open)
			if bind != "" {
				if err := s.declare(bind, nameBinding, ev.DeclLine); err != nil {
					return err
				}
			}
			if err := s.block(ev.Body); err != nil {
				return err
			}
			s.close(evMark)
		}
		s.close(mark)
	}
	for fi := range cm.Funcs {
		fd := &cm.Funcs[fi]
		fs := &scope{machine: cm.Name, where: "function " + fd.Name, inFunc: true, kinds: map[string]nameKind{}}
		for _, p := range fd.Params {
			if err := fs.declare(p.Name, nameParam, fd.DeclLine); err != nil {
				return err
			}
		}
		if err := fs.block(fd.Body); err != nil {
			return err
		}
	}
	return nil
}

func (s *scope) errorf(line int, format string, args ...any) *SemaError {
	e := semaErr(s.machine, line, format, args...)
	if s.where != "" {
		e.Msg = s.where + ": " + e.Msg
	}
	return e
}

// undeclared reports a name that is not in scope. In a function that is
// every variable of the machine too, which the message says.
func (s *scope) undeclared(line int, format, name string) *SemaError {
	e := s.errorf(line, format, name)
	if s.inFunc {
		e.Msg += " (a function sees only its parameters and its locals)"
	}
	return e
}

func (s *scope) declare(name string, k nameKind, line int) error {
	if old, ok := s.kinds[name]; ok {
		return s.errorf(line, "%s %s is already declared as a %s", nameKindWords[k], name, nameKindWords[old])
	}
	s.kinds[name] = k
	s.open = append(s.open, name)
	return nil
}

// close forgets every name declared since mark.
func (s *scope) close(mark int) {
	for _, n := range s.open[mark:] {
		delete(s.kinds, n)
	}
	s.open = s.open[:mark]
}

// block resolves body as a block of its own.
func (s *scope) block(body []Stmt) error {
	mark := len(s.open)
	for _, stmt := range body {
		if err := s.stmt(stmt); err != nil {
			return err
		}
	}
	s.close(mark)
	return nil
}

func (s *scope) stmt(stmt Stmt) error {
	switch st := stmt.(type) {
	case *AssignStmt:
		if err := s.expr(st.Val); err != nil {
			return err
		}
		if _, ok := s.kinds[st.Target]; !ok {
			return s.undeclared(st.Line(), "assignment to undeclared name %s", st.Target)
		}
	case *DeclStmt:
		if err := s.expr(st.Var.Init); err != nil {
			return err
		}
		return s.declare(st.Var.Name, nameLocal, st.Line())
	case *TransitStmt:
		// A function may not transit at all; that fails when it runs.
		if !s.inFunc && !s.states[st.State] {
			return s.errorf(st.Line(), "transit to undeclared state %s", st.State)
		}
	case *IfStmt:
		if err := s.expr(st.Cond); err != nil {
			return err
		}
		if err := s.block(st.Then); err != nil {
			return err
		}
		return s.block(st.Else)
	case *WhileStmt:
		if err := s.expr(st.Cond); err != nil {
			return err
		}
		return s.block(st.Body)
	case *ReturnStmt:
		return s.expr(st.Val)
	case *SendStmt:
		if err := s.expr(st.Val); err != nil {
			return err
		}
		return s.expr(st.To.Dst)
	case *ExprStmt:
		return s.expr(st.X)
	}
	return nil
}

// expr checks every name e reads, every resource it reads and every
// operator it applies to a filter: the first that fails is the error.
func (s *scope) expr(e Expr) (err error) {
	walkExpr(e, func(x Expr) {
		if err != nil {
			return
		}
		switch x := x.(type) {
		case *Ident:
			switch k, ok := s.kinds[x.Name]; {
			case !ok:
				err = s.undeclared(x.Line(), "undeclared name %s", x.Name)
			case k == nameTrigger:
				err = s.errorf(x.Line(), "trigger %s can only be assigned, not read", x.Name)
			}
		case *FieldExpr:
			err = s.resourceField(x, "")
		case *BinaryExpr:
			switch x.Op {
			case "+", "-", "*", "/", "<", ">", "<=", ">=":
				if isFilter(x.L) || isFilter(x.R) {
					err = s.errorf(x.Line(), "operator %s is not defined on a filter", x.Op)
				}
			}
		}
	})
	return err
}

// resources checks every resource e reads (see resourceField).
func (s *scope) resources(e Expr, param string) (err error) {
	walkExpr(e, func(x Expr) {
		if err == nil {
			err = s.resourceField(x, param)
		}
	})
	return err
}

// resourceField refuses x if it reads a resource (see readsResource)
// that does not exist.
func (s *scope) resourceField(x Expr, param string) error {
	f, ok := x.(*FieldExpr)
	if !ok || !readsResource(f, param) {
		return nil
	}
	if _, ok := netmodel.ResByName(f.Field); !ok {
		return s.errorf(f.Line(), "unknown resource %s (the resources are PCIe, RAM, TCAM, poll and vCPU)", f.Field)
	}
	return nil
}

// readsResource reports whether f reads a resource: res().X, or param.X.
func readsResource(f *FieldExpr, param string) bool {
	switch base := f.X.(type) {
	case *CallExpr:
		return base.Name == "res" && len(base.Args) == 0
	case *Ident:
		return base.Name == param
	}
	return false
}

// isFilter reports whether e is a filter by its form: a filter atom, or
// one joined by and/or.
func isFilter(e Expr) bool {
	switch x := e.(type) {
	case *FilterAtom:
		return true
	case *BinaryExpr:
		return (x.Op == "and" || x.Op == "or") && (isFilter(x.L) || isFilter(x.R))
	}
	return false
}
