package core

import (
	"fmt"

	"farm/internal/almanac"
)

// Runner is a deployed machine instance: the register VM (*rvmSeed)
// that Program.NewRunner builds. Soil programs against this, and the
// AST interpreter the tests hold the VM to satisfies it too.
type Runner interface {
	Machine() *almanac.CompiledMachine
	State() string
	Var(name string) (Value, bool)
	TakeActionCount() int
	Start() error
	HandleTrigger(varName string, data Value) error
	HandleRecv(from MsgSource, v Value) error
	HandleRealloc() error
	Snapshot() Snapshot
	Restore(snap Snapshot) error
}

var _ Runner = (*rvmSeed)(nil)

// Program is a machine ready to run: its compiled form, the register
// program lowered from it, and that program resolved against this
// package's runtime — literals pre-unboxed, name->index maps for
// dispatch and snapshots, builtin name slots bound to their
// implementations.
//
// A Program is never written after Compile returns, so any number of
// runners, on any goroutine, share one. Everything a handler can
// mutate — env and state frames, the register arena, the per-site
// field caches, every list, map, struct and sketch value — belongs to
// the runner (rvmSeed) and is built per NewRunner; what is shared is
// literals (scalars and strings only), layouts, dispatch tables and
// the compiled machine, of which NewRunner reads only the external
// variables' declarations.
type Program struct {
	cm       *almanac.CompiledMachine
	p        *almanac.Lowered
	lits     []rval
	trigIdx  map[string]int32
	stateIdx map[string]int32
	envIdx   map[string]int32
	svIdx    []map[string]int32
	natives  []nativeFn // by name index; nil for a name that is no builtin
	// layouts[i] is the interned record layout for struct site
	// p.Structs[i]: struct literals become a layout pointer plus a flat
	// field slice, no per-record map.
	layouts []*Layout
}

// Compile lowers the machine and links the result. A machine that fails
// to lower (neither sema nor DecodeXML accepts one; a machine built by
// hand can be one) is rejected with the lowering error, so every Program
// has an initial state for its runners to start in.
func Compile(cm *almanac.CompiledMachine) (*Program, error) {
	p, err := almanac.Lower(cm, BuiltinNames())
	if err != nil {
		return nil, err
	}
	lp := &Program{cm: cm, p: p}
	lp.lits = make([]rval, len(p.Lits))
	for i, l := range p.Lits {
		switch l.Kind {
		case almanac.LitInt:
			lp.lits[i] = rint(l.I)
		case almanac.LitFloat:
			lp.lits[i] = rfloat(l.F)
		case almanac.LitBool:
			lp.lits[i] = rbool(l.B)
		default:
			lp.lits[i] = rstr(l.S)
		}
	}
	lp.trigIdx = make(map[string]int32, len(p.TriggerNames))
	for i, n := range p.TriggerNames {
		lp.trigIdx[n] = int32(i)
	}
	lp.stateIdx = make(map[string]int32, len(p.States))
	lp.svIdx = make([]map[string]int32, len(p.States))
	for si := range p.States {
		lp.stateIdx[p.States[si].Name] = int32(si)
		idx := make(map[string]int32, len(p.States[si].Slots))
		for vi, s := range p.States[si].Slots {
			idx[s.Name] = int32(vi)
		}
		lp.svIdx[si] = idx
	}
	lp.envIdx = make(map[string]int32, len(p.EnvSlots))
	for i, s := range p.EnvSlots {
		lp.envIdx[s.Name] = int32(i)
	}
	lp.natives = make([]nativeFn, len(p.Names))
	for i, n := range p.Names {
		lp.natives[i] = natives[n]
	}
	lp.layouts = make([]*Layout, len(p.Structs))
	for i := range p.Structs {
		lp.layouts[i] = LayoutOf(p.Structs[i].TypeName, p.Structs[i].Fields)
	}
	return lp, nil
}

// Machine returns the compiled machine the program was lowered from.
func (lp *Program) Machine() *almanac.CompiledMachine { return lp.cm }

// NewRunner deploys one instance of the program on the register VM.
// The deployment's bindings are checked against the machine's external
// variables before anything runs; then the init chunk builds the
// variables (almanac.Lowered.Init) against the deployment's host, and a
// fault there is reported with the initialiser it happened in.
// Construction is not charged to the seed's action count.
func (lp *Program) NewRunner(externals map[string]Value, host Host) (Runner, error) {
	args, err := lp.bindExternals(externals)
	if err != nil {
		return nil, err
	}
	p := lp.p
	m := &rvmSeed{host: machineHost{host, p.Machine}, lp: lp, state: p.InitialState}
	// The init chunk writes every env slot and the initial state's
	// slots before anything reads them.
	m.env = make([]rval, len(p.EnvSlots))
	m.states = make([][]rval, len(p.States))
	all := make([]rval, p.StateSlots())
	for si := range p.States {
		n := len(p.States[si].Slots)
		m.states[si], all = all[:n:n], all[n:]
	}
	m.regs = make([]rval, 64)
	if n := p.RFieldSites; n > 0 {
		m.fc = make([]fieldCache, n)
	}
	if _, err := m.runChunk(p.Init, args); err != nil {
		if running := m.regs[p.RegChunks[p.Init].NumLocals-1]; running.k == rkStr {
			return nil, fmt.Errorf("%s: %w", running.asStr(), err)
		}
		return nil, err
	}
	// The initial state's variables are in its frame already (the chunk
	// moved them there); the other states' are where the chunk built
	// them.
	built := m.regs[len(args):]
	for si, fr := range m.states {
		if int32(si) != p.InitialState {
			copy(fr, built)
		}
		built = built[len(fr):]
	}
	m.actions = 0
	return m, nil
}

// bindExternals checks a deployment's bindings against the machine's
// external variables — every one without an initialiser bound, nothing
// bound the machine does not declare external, the first offender in
// declaration or name order reported — and returns them as the init
// chunk's arguments: a private copy of each binding, undefined where
// there is none.
func (lp *Program) bindExternals(externals map[string]Value) ([]rval, error) {
	declared := func(name string) bool {
		for _, v := range lp.cm.Vars {
			if v.External && v.Name == name {
				return true
			}
		}
		return false
	}
	n := 0
	for _, v := range lp.cm.Vars {
		if v.External {
			n++
		}
	}
	args := make([]rval, 0, n)
	for _, v := range lp.cm.Vars {
		if !v.External {
			continue
		}
		var a rval
		if x, ok := externals[v.Name]; ok {
			a = unbox(CloneValue(x))
		} else if v.Init == nil {
			return nil, fmt.Errorf("core: %s: external variable %s not bound at deployment", lp.p.Machine, v.Name)
		}
		args = append(args, a)
	}
	if name, ok := smallestMissing(externals, declared); ok {
		return nil, fmt.Errorf("core: %s: unknown external variable %s", lp.p.Machine, name)
	}
	return args, nil
}
