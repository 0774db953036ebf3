package core

import (
	"fmt"
	"time"

	"farm/internal/almanac"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// SendDest identifies a message destination from a seed's perspective.
type SendDest struct {
	Harvester bool
	Machine   string // target machine name when not harvester
	Dst       string // optional destination selector (switch name); "" = broadcast
}

// MsgSource identifies where a received message came from.
type MsgSource struct {
	Harvester bool
	Machine   string // sending machine name
	Switch    string // sending switch name ("" for harvester)
}

// Host is the seed's window onto its switch and network — implemented
// by the soil. All methods are called from the seed's event handlers on
// the simulation loop.
type Host interface {
	// Now returns the current (virtual) time.
	Now() time.Duration
	// Resources returns the seed's current resource allocation (res()).
	Resources() netmodel.Resources
	// AddTCAMRule installs a monitoring TCAM rule (local reaction).
	AddTCAMRule(r dataplane.Rule) error
	// RemoveTCAMRule removes the rule with exactly the given filter.
	RemoveTCAMRule(f dataplane.Filter) bool
	// GetTCAMRule fetches the rule with exactly the given filter.
	GetTCAMRule(f dataplane.Filter) (dataplane.Rule, bool)
	// Send delivers a value to the harvester or other seeds.
	Send(to SendDest, v Value)
	// SetTriggerInterval retunes a trigger variable's period (ms).
	SetTriggerInterval(trigger string, ivalMillis float64)
	// Exec runs external code (the ML task hook, List. 1's exec()).
	Exec(command string, arg Value) (Value, error)
	// Log records a diagnostic message.
	Log(format string, args ...any)
}

// machineHost is the Host a seed's code runs against: the deployment's,
// with the machine's name noted on every TCAM rule it installs. It is
// all of a seed that a builtin sees.
type machineHost struct {
	Host
	machine string
}

func (h machineHost) AddTCAMRule(r dataplane.Rule) error {
	r.Note = h.machine
	return h.Host.AddTCAMRule(r)
}

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
// Externals must cover every external declaration; extra keys are
// rejected to catch typos at deploy time.
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

	extSeen := map[string]bool{}
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
		if v.External {
			ext, ok := externals[v.Name]
			if ok {
				val = CloneValue(ext)
			} else if v.Init == nil {
				return nil, fmt.Errorf("core: %s: external variable %s not bound at deployment", cm.Name, v.Name)
			}
			extSeen[v.Name] = true
		}
		s.env[v.Name] = val
	}
	for name := range externals {
		if !extSeen[name] {
			return nil, fmt.Errorf("core: %s: unknown external variable %s", cm.Name, name)
		}
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

func recvMatches(trg almanac.EventTrigger, from MsgSource, v Value) bool {
	if trg.FromHarvester && !from.Harvester {
		return false
	}
	if trg.FromMachine != "" && trg.FromMachine != from.Machine {
		return false
	}
	switch trg.RecvType {
	case almanac.TUnknown:
		return true
	case almanac.TInt, almanac.TLong:
		_, ok := v.(int64)
		return ok
	case almanac.TFloat:
		_, ok := v.(float64)
		return ok
	case almanac.TBool:
		_, ok := v.(bool)
		return ok
	case almanac.TString:
		_, ok := v.(string)
		return ok
	case almanac.TList:
		_, ok := v.(List)
		return ok
	case almanac.TMap:
		_, ok := v.(*MapVal)
		return ok
	case almanac.TFilter:
		_, ok := v.(FilterVal)
		return ok
	case almanac.TAction:
		_, ok := v.(ActionVal)
		return ok
	case almanac.TPacket:
		_, ok := v.(PacketVal)
		return ok
	case almanac.TStruct:
		sv, ok := v.(StructVal)
		return ok && (trg.RecvTypeName == "" || sv.Type() == trg.RecvTypeName)
	}
	return false
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

// maxTransitChain bounds enter/exit cascades so a buggy machine cannot
// loop the soil forever.
const maxTransitChain = 64

func (s *Seed) runBody(ev *almanac.EventDecl, bind map[string]Value) error {
	return s.runStmtsWithTransit(ev.Body, bind, 0)
}

func (s *Seed) runStmtsWithTransit(body []almanac.Stmt, bind map[string]Value, depth int) error {
	if depth > maxTransitChain {
		return fmt.Errorf("core: seed %s: transition chain exceeds %d (state-machine loop?)", s.machine.Name, maxTransitChain)
	}
	scope := newScope(s, bind)
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
			scope := newScope(s, nil)
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

// --- Migration snapshot (§IV-B-a, §V-B) ---

// Snapshot is a seed's full mutable state, transferable to another
// switch during migration. Values are deep copies.
type Snapshot struct {
	Machine   string
	State     string
	Env       map[string]Value
	StateVars map[string]map[string]Value
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
	for k, v := range snap.Env {
		if _, ok := s.env[k]; !ok {
			return fmt.Errorf("core: snapshot variable %s unknown", k)
		}
		s.env[k] = CloneValue(v)
	}
	for st, vars := range snap.StateVars {
		dst, ok := s.stateVars[st]
		if !ok {
			return fmt.Errorf("core: snapshot state %s unknown", st)
		}
		for k, v := range vars {
			dst[k] = CloneValue(v)
		}
	}
	s.state = snap.State
	s.started = true
	return nil
}
