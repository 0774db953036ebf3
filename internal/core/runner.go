package core

import "farm/internal/almanac"

// Runner is a deployed machine instance. Production deployments get
// the register VM (*rvmSeed) from NewRunner; the AST interpreter (*Seed)
// satisfies the same interface and is what tests compare it against.
// Soil programs against this.
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

// linkedLowered is a Lowered program resolved against this package's
// runtime: literals pre-unboxed, name->index maps for dispatch and
// snapshots, and builtin name slots bound to their implementations
// (plus native unboxed fast paths where we have them).
type linkedLowered struct {
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

func link(p *almanac.Lowered) *linkedLowered {
	lp := &linkedLowered{p: p}
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
	return lp
}

// NewRunner lowers and links the machine and deploys it on the register
// VM. The linked program belongs to the returned runner and is released
// with it. A machine that fails to lower (sema accepts none, but decoded
// seed XML is not sema-checked) is rejected with the lowering error.
func NewRunner(cm *almanac.CompiledMachine, externals map[string]Value, host Host) (Runner, error) {
	p, err := almanac.Lower(cm, BuiltinNames())
	if err != nil {
		return nil, err
	}
	return newRVMSeed(cm, externals, host, link(p))
}
