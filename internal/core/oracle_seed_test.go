package core

import (
	"fmt"
	"sort"

	"farm/internal/almanac"
	"farm/internal/dataplane"
)

// The AST interpreter: the semantic reference the register VM is held
// to. It evaluates a machine's statements and expressions on the AST
// directly, with names resolved through maps at every access, and is
// built only by tests.

var _ Runner = (*Seed)(nil)

// Seed is a running instance of a compiled machine.
type Seed struct {
	machine *almanac.CompiledMachine
	host    Host

	env       map[string]Value            // machine-level variables
	stateVars map[string]map[string]Value // per-state locals
	state     string

	funcs   map[string]*almanac.FuncDecl
	structs map[string]*almanac.StructDecl

	started bool
	depth   int // auxiliary-function activations in progress (maxCallDepth)
	// actions counts executed statements since the last TakeActionCount;
	// the soil charges CPU cost proportionally.
	actions int
}

// NewSeed instantiates a machine with bound external variables.
// Externals must cover every external declaration without an
// initialiser; extra keys are rejected to catch typos at deploy time.
// Both are checked before any initialiser runs. Construction is not
// charged: the action count starts at zero.
func NewSeed(cm *almanac.CompiledMachine, externals map[string]Value, host Host) (*Seed, error) {
	s := &Seed{
		machine:   cm,
		host:      machineHost{host, cm.Name},
		env:       make(map[string]Value),
		stateVars: make(map[string]map[string]Value),
		state:     cm.InitialState,
		funcs:     make(map[string]*almanac.FuncDecl),
		structs:   make(map[string]*almanac.StructDecl),
	}
	for i := range cm.Funcs {
		s.funcs[cm.Funcs[i].Name] = &cm.Funcs[i]
	}
	for i := range cm.Structs {
		s.structs[cm.Structs[i].Name] = &cm.Structs[i]
	}

	declared := map[string]bool{}
	for _, v := range cm.Vars {
		if !v.External {
			continue
		}
		declared[v.Name] = true
		if _, ok := externals[v.Name]; !ok && v.Init == nil {
			return nil, fmt.Errorf("core: %s: external variable %s not bound at deployment", cm.Name, v.Name)
		}
	}
	var unknown []string
	for name := range externals {
		if !declared[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("core: %s: unknown external variable %s", cm.Name, unknown[0])
	}
	for _, v := range cm.Vars {
		var val Value
		if v.Init != nil {
			var err error
			val, err = s.eval(v.Init, nil)
			if err != nil {
				return nil, fmt.Errorf("core: %s: init of %s: %w", cm.Name, v.Name, err)
			}
		} else {
			val = zeroValue(v.Type)
		}
		if ext, ok := externals[v.Name]; ok && v.External {
			val = CloneValue(ext)
		}
		s.env[v.Name] = val
	}
	// State locals are initialized once, up front; they persist across
	// transitions like the machine's own state does.
	for _, st := range cm.States {
		locals := make(map[string]Value)
		for _, v := range st.Vars {
			if v.Init != nil {
				val, err := s.eval(v.Init, nil)
				if err != nil {
					return nil, fmt.Errorf("core: %s: state %s: init of %s: %w", cm.Name, st.Name, v.Name, err)
				}
				locals[v.Name] = val
			} else {
				locals[v.Name] = zeroValue(v.Type)
			}
		}
		s.stateVars[st.Name] = locals
	}
	s.actions = 0
	return s, nil
}

func zeroValue(t almanac.Type) Value {
	switch t {
	case almanac.TBool:
		return false
	case almanac.TInt, almanac.TLong:
		return int64(0)
	case almanac.TFloat:
		return float64(0)
	case almanac.TString:
		return ""
	case almanac.TList:
		return List(nil)
	case almanac.TMap:
		return NewMap()
	case almanac.TFilter:
		return FilterVal{}
	case almanac.TAction:
		return ActionVal(dataplane.ActAllow)
	case almanac.TPacket:
		return PacketVal{}
	default:
		return nil
	}
}

// Machine returns the seed's compiled machine.
func (s *Seed) Machine() *almanac.CompiledMachine { return s.machine }

// State returns the current state name.
func (s *Seed) State() string { return s.state }

// Var reads a machine-level variable (tests and harvesters' debugging).
func (s *Seed) Var(name string) (Value, bool) {
	v, ok := s.env[name]
	return v, ok
}

// TakeActionCount returns the number of Almanac actions executed since
// the previous call and resets the counter. The soil uses it for CPU
// cost accounting.
func (s *Seed) TakeActionCount() int {
	n := s.actions
	s.actions = 0
	return n
}

// Start fires the initial state's enter event.
func (s *Seed) Start() error {
	if s.started {
		return fmt.Errorf("core: seed %s already started", s.machine.Name)
	}
	s.started = true
	return s.fire(almanac.TrigOnEnter, nil, MsgSource{}, nil)
}

// HandleTrigger delivers a trigger-variable firing (poll result, probe
// packet, or time tick) to the current state. The interpreter works on
// boxed values only: a poll batch is materialised on entry, a packet
// lent by pointer copied.
func (s *Seed) HandleTrigger(varName string, data Value) error {
	switch x := data.(type) {
	case *Batch:
		data = x.List()
	case *PacketVal:
		data = *x
	}
	st, ok := s.machine.State(s.state)
	if !ok {
		return fmt.Errorf("core: seed %s in unknown state %s", s.machine.Name, s.state)
	}
	for i := range st.Events {
		ev := &st.Events[i]
		if ev.Trigger.Kind == almanac.TrigOnVar && ev.Trigger.VarName == varName {
			bind := map[string]Value{}
			if ev.Trigger.AsName != "" {
				bind[ev.Trigger.AsName] = data
			}
			return s.runBody(ev, bind)
		}
	}
	return nil // no handler in this state: the event is simply ignored
}

// HandleRecv delivers a message. The first recv event in the current
// state whose pattern (type and source) matches consumes it; a
// non-matching message is dropped, following the pattern-matching
// semantics of §III-A-c.
func (s *Seed) HandleRecv(from MsgSource, v Value) error {
	st, ok := s.machine.State(s.state)
	if !ok {
		return fmt.Errorf("core: seed %s in unknown state %s", s.machine.Name, s.state)
	}
	for i := range st.Events {
		ev := &st.Events[i]
		if ev.Trigger.Kind != almanac.TrigOnRecv {
			continue
		}
		if !recvMatches(ev.Trigger, from, v) {
			continue
		}
		bind := map[string]Value{ev.Trigger.RecvVar: CloneValue(v)}
		return s.runBody(ev, bind)
	}
	return nil
}

// HandleRealloc fires the realloc event after a placement
// re-optimization changed the seed's resources (§III-A-c).
func (s *Seed) HandleRealloc() error {
	return s.fire(almanac.TrigOnRealloc, nil, MsgSource{}, nil)
}

// fire runs the handler for a parameterless trigger kind in the current
// state, if declared.
func (s *Seed) fire(kind almanac.TriggerKind, _ Value, _ MsgSource, bind map[string]Value) error {
	st, ok := s.machine.State(s.state)
	if !ok {
		return fmt.Errorf("core: seed %s in unknown state %s", s.machine.Name, s.state)
	}
	for i := range st.Events {
		ev := &st.Events[i]
		if ev.Trigger.Kind == kind {
			return s.runBody(ev, bind)
		}
	}
	return nil
}

func (s *Seed) runBody(ev *almanac.EventDecl, bind map[string]Value) error {
	return s.runStmtsWithTransit(ev.Body, bind, 0)
}

func (s *Seed) runStmtsWithTransit(body []almanac.Stmt, bind map[string]Value, depth int) error {
	if depth > maxTransitChain {
		return fmt.Errorf("core: seed %s: transition chain exceeds %d (state-machine loop?)", s.machine.Name, maxTransitChain)
	}
	scope := newScope(s, bind, false)
	res, err := s.exec(body, scope)
	if err != nil {
		return err
	}
	if res.kind == ctrlTransit {
		return s.transitionTo(res.transit, depth+1)
	}
	return nil
}

func (s *Seed) transitionTo(target string, depth int) error {
	if _, ok := s.machine.State(target); !ok {
		return fmt.Errorf("core: seed %s: transit to unknown state %s", s.machine.Name, target)
	}
	// Exit events of the old state run first (still in the old state).
	st, _ := s.machine.State(s.state)
	for i := range st.Events {
		ev := &st.Events[i]
		if ev.Trigger.Kind == almanac.TrigOnExit {
			scope := newScope(s, nil, false)
			res, err := s.exec(ev.Body, scope)
			if err != nil {
				return err
			}
			if res.kind == ctrlTransit {
				return fmt.Errorf("core: seed %s: transit inside exit handler is not allowed", s.machine.Name)
			}
			break
		}
	}
	s.state = target
	// Enter events of the new state.
	newSt, _ := s.machine.State(target)
	for i := range newSt.Events {
		ev := &newSt.Events[i]
		if ev.Trigger.Kind == almanac.TrigOnEnter {
			return s.runStmtsWithTransit(ev.Body, nil, depth)
		}
	}
	return nil
}

// Snapshot captures the seed's current state for migration.
func (s *Seed) Snapshot() Snapshot {
	env := make(map[string]Value, len(s.env))
	for k, v := range s.env {
		env[k] = CloneValue(v)
	}
	sv := make(map[string]map[string]Value, len(s.stateVars))
	for st, vars := range s.stateVars {
		m := make(map[string]Value, len(vars))
		for k, v := range vars {
			m[k] = CloneValue(v)
		}
		sv[st] = m
	}
	return Snapshot{Machine: s.machine.Name, State: s.state, Env: env, StateVars: sv}
}

// Restore loads a snapshot into a freshly created seed (same machine).
// Execution resumes in the snapshot's state without re-firing its enter
// event — the seed continues, it does not restart (§V-B).
func (s *Seed) Restore(snap Snapshot) error {
	if snap.Machine != s.machine.Name {
		return fmt.Errorf("core: snapshot of %s cannot restore into %s", snap.Machine, s.machine.Name)
	}
	if _, ok := s.machine.State(snap.State); !ok {
		return fmt.Errorf("core: snapshot state %s unknown", snap.State)
	}
	err := snap.checkNames(
		func(k string) bool { _, ok := s.env[k]; return ok },
		func(st string) bool { _, ok := s.stateVars[st]; return ok },
		func(st, k string) bool { _, ok := s.stateVars[st][k]; return ok })
	if err != nil {
		return err
	}
	for k, v := range snap.Env {
		s.env[k] = CloneValue(v)
	}
	for st, vars := range snap.StateVars {
		for k, v := range vars {
			s.stateVars[st][k] = CloneValue(v)
		}
	}
	s.state = snap.State
	s.started = true
	return nil
}
