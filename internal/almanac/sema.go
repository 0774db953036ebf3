package almanac

import (
	"fmt"
)

// CompiledState is a state with its effective event set (machine-level
// events merged in, state-level definitions overriding by trigger key).
type CompiledState struct {
	Name   string
	Vars   []VarDecl
	Util   *UtilDecl
	Events []EventDecl
}

// CompiledMachine is the deployable form of a machine: inheritance
// flattened, events merged, and declarations validated. This is what
// the seeder serializes to XML and ships to soils (§V-A-d).
type CompiledMachine struct {
	Name         string
	Placements   []Placement
	Vars         []VarDecl
	Triggers     []TriggerDecl
	States       []CompiledState
	InitialState string
	// Program context carried along so seeds can call auxiliary
	// functions and instantiate user structs.
	Funcs   []FuncDecl
	Structs []StructDecl
}

// State returns the compiled state with the given name.
func (m *CompiledMachine) State(name string) (*CompiledState, bool) {
	for i := range m.States {
		if m.States[i].Name == name {
			return &m.States[i], true
		}
	}
	return nil, false
}

// ExternalVars returns the names of variables marked external.
func (m *CompiledMachine) ExternalVars() []string {
	var out []string
	for _, v := range m.Vars {
		if v.External {
			out = append(out, v.Name)
		}
	}
	return out
}

// SemaError is a semantic-analysis error.
type SemaError struct {
	Machine string
	Line    int
	Msg     string
}

func (e *SemaError) Error() string {
	return fmt.Sprintf("almanac: machine %s: line %d: %s", e.Machine, e.Line, e.Msg)
}

func semaErr(machine string, line int, format string, args ...any) *SemaError {
	return &SemaError{Machine: machine, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Compile validates and flattens every machine in the program.
func Compile(prog *Program) ([]*CompiledMachine, error) {
	out := make([]*CompiledMachine, 0, len(prog.Machines))
	for _, m := range prog.Machines {
		cm, err := CompileMachine(prog, m.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, cm)
	}
	return out, nil
}

// CompileMachine validates and flattens one machine (resolving single
// inheritance: states may be overridden in children; variables and
// trigger variables may not be overridden or shadowed, §III-A-a). A
// machine that declares a state twice is refused.
func CompileMachine(prog *Program, name string) (*CompiledMachine, error) {
	chain, err := inheritanceChain(prog, name)
	if err != nil {
		return nil, err
	}

	cm := &CompiledMachine{Name: name, Funcs: prog.Funcs, Structs: prog.Structs}
	stateIdx := map[string]int{} // name -> index in cm.States
	machineEvents := []EventDecl{}
	stateOrder := []string{} // order of first declaration (base first)

	// Walk base-to-derived so children override parents.
	for i := len(chain) - 1; i >= 0; i-- {
		md := chain[i]
		// Variables and triggers accumulate; resolveNames refuses one
		// that reuses a name (no overriding or shadowing).
		cm.Vars = append(cm.Vars, md.Vars...)
		cm.Triggers = append(cm.Triggers, md.Triggers...)
		// Placements: children replace the parent's placement set when
		// they declare any; otherwise inherit.
		if len(md.Placements) > 0 {
			cm.Placements = md.Placements
		}
		// States: override by name, a child's state replacing its
		// parent's; one machine declares each name once.
		for i, st := range md.States {
			for _, prev := range md.States[:i] {
				if prev.Name == st.Name {
					return nil, semaErr(md.Name, st.DeclLine, "state %s declared twice (first at line %d)", st.Name, prev.DeclLine)
				}
			}
			if idx, ok := stateIdx[st.Name]; ok {
				cm.States[idx] = CompiledState{Name: st.Name, Vars: st.Vars, Util: st.Util, Events: st.Events}
			} else {
				stateIdx[st.Name] = len(cm.States)
				stateOrder = append(stateOrder, st.Name)
				cm.States = append(cm.States, CompiledState{Name: st.Name, Vars: st.Vars, Util: st.Util, Events: st.Events})
			}
		}
		// Machine-level events: children's add to (and override) parents'.
		machineEvents = mergeEvents(machineEvents, md.Events)
	}

	if len(cm.States) == 0 {
		return nil, semaErr(name, chain[0].DeclLine, "machine declares no states")
	}
	// The initial state is the first state declared by the most-base
	// machine (the paper's List. 2 starts in its first state, observe).
	cm.InitialState = stateOrder[0]

	// Merge machine-level events into each state, state-level winning.
	for i := range cm.States {
		cm.States[i].Events = mergeEvents(machineEvents, cm.States[i].Events)
	}

	if err := validateMachine(cm); err != nil {
		return nil, err
	}
	if err := resolveNames(cm); err != nil {
		return nil, err
	}
	return cm, nil
}

// mergeEvents overlays overriding events (by trigger key) onto base.
func mergeEvents(base, overriding []EventDecl) []EventDecl {
	out := []EventDecl{}
	overridden := map[string]bool{}
	for _, ev := range overriding {
		overridden[ev.Trigger.key()] = true
	}
	for _, ev := range base {
		if !overridden[ev.Trigger.key()] {
			out = append(out, ev)
		}
	}
	return append(out, overriding...)
}

func inheritanceChain(prog *Program, name string) ([]*MachineDecl, error) {
	var chain []*MachineDecl
	seen := map[string]bool{}
	cur := name
	for cur != "" {
		if seen[cur] {
			return nil, semaErr(name, 0, "inheritance cycle through %s", cur)
		}
		seen[cur] = true
		md, ok := prog.Machine(cur)
		if !ok {
			return nil, semaErr(name, 0, "machine %s not found", cur)
		}
		chain = append(chain, md)
		cur = md.Extends
	}
	return chain, nil
}

func validateMachine(cm *CompiledMachine) error {
	for _, st := range cm.States {
		for _, v := range st.Vars {
			if v.External {
				return semaErr(cm.Name, v.DeclLine, "state %s: external is disallowed on state variables", st.Name)
			}
		}
		if st.Util != nil {
			if err := validateUtil(cm.Name, st.Name, st.Util); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateUtil enforces the syntactic restrictions on util bodies
// (§III-A-f): only if-then-else and return statements; only the
// operators and, or, ==, <=, >=, +, -, *, /; calls only to min and max.
func validateUtil(machine, state string, ut *UtilDecl) error {
	var checkExpr func(Expr) error
	checkExpr = func(e Expr) error {
		switch ex := e.(type) {
		case *IntLit, *FloatLit, *Ident:
			return nil
		case *FieldExpr:
			return checkExpr(ex.X)
		case *BinaryExpr:
			switch ex.Op {
			case "and", "or", "==", "<=", ">=", "+", "-", "*", "/":
			default:
				return semaErr(machine, ex.Line(), "state %s: operator %q is not allowed in util", state, ex.Op)
			}
			if err := checkExpr(ex.L); err != nil {
				return err
			}
			return checkExpr(ex.R)
		case *CallExpr:
			if ex.Name != "min" && ex.Name != "max" {
				return semaErr(machine, ex.Line(), "state %s: util may only call min and max, not %s", state, ex.Name)
			}
			for _, a := range ex.Args {
				if err := checkExpr(a); err != nil {
					return err
				}
			}
			return nil
		default:
			return semaErr(machine, e.Line(), "state %s: expression form not allowed in util", state)
		}
	}
	var checkStmts func([]Stmt) error
	checkStmts = func(stmts []Stmt) error {
		for _, s := range stmts {
			switch st := s.(type) {
			case *IfStmt:
				if err := checkExpr(st.Cond); err != nil {
					return err
				}
				if err := checkStmts(st.Then); err != nil {
					return err
				}
				if err := checkStmts(st.Else); err != nil {
					return err
				}
			case *ReturnStmt:
				if st.Val != nil {
					if err := checkExpr(st.Val); err != nil {
						return err
					}
				}
			default:
				return semaErr(machine, s.Line(), "state %s: util allows only if-then-else and return statements", state)
			}
		}
		return nil
	}
	return checkStmts(ut.Body)
}
