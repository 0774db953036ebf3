package core

import "farm/internal/almanac"

// Runner is a deployed machine instance. Production deployments get
// the register VM (*rvmSeed) from Program.NewRunner; the AST interpreter
// (*Seed) satisfies the same interface and is what tests compare it
// against. Soil programs against this.
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

var (
	_ Runner = (*Seed)(nil)
	_ Runner = (*rvmSeed)(nil)
)

// Program is a machine ready to run: its compiled form, the register
// program lowered from it, and that program resolved against this
// package's runtime — literals pre-unboxed, name->index maps for
// dispatch and snapshots, builtin name slots bound to their
// implementations (plus native unboxed fast paths where we have them).
//
// A Program is never written after Compile returns, so any number of
// runners, on any engine shard, share one. Everything a handler can
// mutate — env and state frames, the register arena, the per-site
// field caches, every list, map, struct and sketch value — belongs to
// the runner (rvmSeed) and is built per NewRunner; what is shared is
// literals (scalars and strings only), layouts, dispatch tables and
// the machine's AST, which NewRunner's initialiser evaluation only
// reads.
type Program struct {
	cm       *almanac.CompiledMachine
	p        *almanac.Lowered
	lits     []rval
	trigIdx  map[string]int32
	stateIdx map[string]int32
	envIdx   map[string]int32
	svIdx    []map[string]int32
	bfns     []builtinFn
	natives  []nativeFn
	// layouts[i] is the interned record layout for struct site
	// p.Structs[i]: struct literals become a layout pointer plus a flat
	// field slice, no per-record map.
	layouts []*Layout
}

// Compile lowers the machine and links the result. A machine that fails
// to lower (sema accepts none, but decoded seed XML is not sema-checked)
// is rejected with the lowering error, so every Program has an initial
// state for its runners to start in.
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
	lp.bfns = make([]builtinFn, len(p.Names))
	lp.natives = make([]nativeFn, len(p.Names))
	for i, n := range p.Names {
		if fn, ok := builtins[n]; ok {
			lp.bfns[i] = fn
			lp.natives[i] = vmNatives[n]
		}
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
// Construction goes through NewSeed so init-expression evaluation,
// external binding/validation, and every construction-time error string
// have one source, the interpreter; its env and per-state variable maps
// are flattened into slot frames and the interpreter is let go — the
// runner keeps the host, nothing else.
func (lp *Program) NewRunner(externals map[string]Value, host Host) (Runner, error) {
	in, err := NewSeed(lp.cm, externals, host)
	if err != nil {
		return nil, err
	}
	m := &rvmSeed{host: in.host, lp: lp, state: lp.p.InitialState}
	m.env = make([]rval, len(lp.p.EnvSlots))
	for i, s := range lp.p.EnvSlots {
		m.env[i] = unbox(in.env[s.Name])
	}
	m.states = make([][]rval, len(lp.p.States))
	for si := range lp.p.States {
		slots := lp.p.States[si].Slots
		fr := make([]rval, len(slots))
		sv := in.stateVars[lp.p.States[si].Name]
		for i, s := range slots {
			fr[i] = unbox(sv[s.Name])
		}
		m.states[si] = fr
	}
	m.regs = make([]rval, 64)
	if n := lp.p.RFieldSites; n > 0 {
		m.fc = make([]fieldCache, n)
	}
	return m, nil
}
