package core

import (
	"fmt"
	"net/netip"

	"farm/internal/almanac"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// The register VM, everything but its dispatch loop (rvm.go) and its
// builtins (builtins.go): the unboxed value representation, the seed's
// frames and their Snapshot/Restore, and the arithmetic and field slow
// paths. Values live unboxed in rval
// frames (machine env slots, per-state persistent slots, a register
// arena for handler/function activations); only reference values
// (lists, maps, structs, sketches, ...) carry a boxed payload. The AST
// interpreter in this package's tests is the semantic reference: every
// operation here must match it bit-for-bit, including error strings —
// the parity property tests enforce that.

// rkind tags an rval.
type rkind uint8

const (
	rkUndef rkind = iota // no value: an external the deployment did not bind (RBindExternal), a register not written yet
	rkNil
	rkInt
	rkFloat
	rkBool
	rkStr
	rkRef
	rkBatch  // unboxed poll batch: ref holds the *Batch; boxes to its List
	rkRow    // record i of the *Batch in ref; boxes to a private StructVal
	rkPacket // a probe's packet read in place: ref holds the caller's *PacketVal, valid until HandleTrigger returns (keepPackets); boxes to a private PacketVal
	rkMark   // internal RAndL marker ("lhs was truthy")
)

// rval is an unboxed VM value. Exactly one payload field is meaningful
// for a given kind; bools use i (0/1). Strings keep their boxed Value
// in ref — the common sources (literals, unbox) already hold one, so no
// conversion happens, and the struct stays 40 bytes, which matters:
// the dispatch loop is dominated by rval copies between slots.
type rval struct {
	k   rkind
	i   int64
	f   float64
	ref Value
}

// asStr reads an rkStr payload.
func (r rval) asStr() string { return r.ref.(string) }

func rint(v int64) rval     { return rval{k: rkInt, i: v} }
func rfloat(v float64) rval { return rval{k: rkFloat, f: v} }
func rstr(v string) rval    { return rval{k: rkStr, ref: v} }
func rbool(v bool) rval {
	if v {
		return rval{k: rkBool, i: 1}
	}
	return rval{k: rkBool}
}
func rref(v Value) rval { return rval{k: rkRef, ref: v} }

// isRef reports whether r is a reference value in any representation.
func (r rval) isRef() bool { return r.k >= rkRef && r.k <= rkPacket }

// materialised turns a poll batch or row, or a packet read in place,
// into the boxed reference it stands for and leaves every other value
// alone: what a cold path calls before it looks at ref.
func (r rval) materialised() rval {
	if r.k > rkRef && r.k <= rkPacket {
		return rref(r.box())
	}
	return r
}

// unbox converts a boxed Value into an rval.
func unbox(v Value) rval {
	switch x := v.(type) {
	case *Batch:
		return rval{k: rkBatch, ref: x}
	case nil:
		return rval{k: rkNil}
	case int64:
		return rint(x)
	case float64:
		return rfloat(x)
	case bool:
		return rbool(x)
	case string:
		return rval{k: rkStr, ref: v} // the box it came in, not a new one
	default:
		return rref(v)
	}
}

// box converts an rval back into a boxed Value (cold paths only:
// snapshots, sends, struct/list construction, the builtins that read a
// value as a whole). This is where a poll batch, one of its rows or a
// packet read in place leaves the VM: it materialises into the List /
// StructVal / PacketVal it stands for, a private copy every time.
func (r rval) box() Value {
	switch r.k {
	case rkNil:
		return nil
	case rkInt:
		return r.i
	case rkFloat:
		return r.f
	case rkBool:
		return r.i != 0
	case rkStr:
		return r.ref
	case rkBatch:
		return r.ref.(*Batch).List()
	case rkRow:
		return r.ref.(*Batch).record(int(r.i))
	case rkPacket:
		return *r.ref.(*PacketVal)
	default:
		return r.ref
	}
}

// typeNameR mirrors TypeName without boxing.
func typeNameR(r rval) string {
	switch r.k {
	case rkNil:
		return "nil"
	case rkInt:
		return "long"
	case rkFloat:
		return "float"
	case rkBool:
		return "bool"
	case rkStr:
		return "string"
	case rkRow:
		return "struct"
	case rkPacket:
		return "packet"
	default:
		return TypeName(r.ref) // a *Batch names itself a list
	}
}

// truthyR mirrors Truthy without boxing.
func truthyR(r rval) (bool, error) {
	switch r.k {
	case rkBool, rkInt:
		return r.i != 0, nil
	case rkFloat:
		return r.f != 0, nil
	case rkNil:
		return false, nil
	}
	return false, fmt.Errorf("core: %s is not usable as a condition", typeNameR(r))
}

// asFloatR mirrors AsFloat without boxing.
func asFloatR(r rval) (float64, bool) {
	switch r.k {
	case rkInt:
		return float64(r.i), true
	case rkFloat:
		return r.f, true
	}
	return 0, false
}

// eqR mirrors Equal on two rvals. Kinds that differ (with rkInt/rkFloat
// as one numeric class) can never be Equal, which matches every branch
// of the boxed implementation; same-class scalars compare directly and
// references defer to Equal (batches and rows through what they box to).
func eqR(l, r rval) bool {
	if lf, ok := asFloatR(l); ok {
		rf, ok2 := asFloatR(r)
		return ok2 && lf == rf
	}
	switch l.k {
	case rkBool:
		return r.k == rkBool && l.i == r.i
	case rkStr:
		return r.k == rkStr && l.asStr() == r.asStr()
	case rkNil:
		return r.k == rkNil
	case rkRef, rkBatch, rkRow, rkPacket:
		if l.k == rkRef && r.k == rkRef {
			return Equal(l.ref, r.ref)
		}
		return r.isRef() && Equal(l.box(), r.box())
	}
	return false
}

// Prebuilt boxed zero values for reference kinds that are immutable (or
// never mutated through the shared box), so OpZero stays allocation
// free where the interpreter's zeroValue would re-box.
var (
	zeroListVal   Value = List(nil)
	zeroFilterVal Value = FilterVal{}
	zeroActionVal Value = ActionVal(dataplane.ActAllow)
	zeroPacketVal Value = PacketVal{}
)

// zeroRval mirrors the interpreter's zeroValue. TMap must be fresh per
// execution (maps are mutable references).
func zeroRval(t almanac.Type) rval {
	switch t {
	case almanac.TBool:
		return rbool(false)
	case almanac.TInt, almanac.TLong:
		return rint(0)
	case almanac.TFloat:
		return rfloat(0)
	case almanac.TString:
		return rstr("")
	case almanac.TList:
		return rref(zeroListVal)
	case almanac.TMap:
		return rref(NewMap())
	case almanac.TFilter:
		return rref(zeroFilterVal)
	case almanac.TAction:
		return rref(zeroActionVal)
	case almanac.TPacket:
		return rref(zeroPacketVal)
	default:
		return rval{k: rkNil}
	}
}

// rvmSeed executes one deployed machine on the register form of its
// lowered program.
type rvmSeed struct {
	host    Host
	lp      *Program
	env     []rval
	states  [][]rval
	state   int32
	started bool
	actions int
	depth   int // auxiliary-function activations in progress (maxCallDepth)

	regs    []rval // register arena; chunk frames are windows into it
	rbase   int
	fc      []fieldCache // one per RField site, lazily filled
	bindBuf [1]rval
	nargs   [2]rval // RCallB2 argument buffer

	// addrText interns the boxed text of the packet addresses this seed
	// has read: one String() and one box per address, not per read. At
	// maxAddrText entries it is wiped (a spoofed-source flood presents a
	// fresh address with every sample). Made on the first address read.
	addrText map[netip.Addr]Value
	// flowText does the same for p.flow, per 5-tuple, with the same bound
	// and wipe. Made on the first flow read.
	flowText map[dataplane.FlowKey]Value
}

// maxAddrText bounds rvmSeed.addrText and rvmSeed.flowText.
const maxAddrText = 256

// protoText is the boxed name of every protocol number.
var protoText = func() (t [256]Value) {
	for i := range t {
		t[i] = dataplane.Proto(i).String()
	}
	return t
}()

// addrStr returns a's text, equal to a.String().
func (m *rvmSeed) addrStr(a netip.Addr) rval {
	v, ok := m.addrText[a]
	if !ok {
		if m.addrText == nil {
			m.addrText = make(map[netip.Addr]Value)
		} else if len(m.addrText) >= maxAddrText {
			clear(m.addrText)
		}
		v = a.String()
		m.addrText[a] = v
	}
	return rval{k: rkStr, ref: v}
}

// flowStr returns k's text, equal to k.String().
func (m *rvmSeed) flowStr(k dataplane.FlowKey) rval {
	v, ok := m.flowText[k]
	if !ok {
		if m.flowText == nil {
			m.flowText = make(map[dataplane.FlowKey]Value)
		} else if len(m.flowText) >= maxAddrText {
			clear(m.flowText)
		}
		v = k.String()
		m.flowText[k] = v
	}
	return rval{k: rkStr, ref: v}
}

// fieldCache is one RField site's inline cache: last-seen layout and
// the field's slot in it.
type fieldCache struct {
	l    *Layout
	slot int32
}

func (m *rvmSeed) Machine() *almanac.CompiledMachine { return m.lp.cm }

func (m *rvmSeed) State() string { return m.lp.p.States[m.state].Name }

// Var reads a machine variable. A map comes out as a copy: the seed may
// empty its own in place later (RMapReset).
func (m *rvmSeed) Var(name string) (Value, bool) {
	if ei, ok := m.lp.envIdx[name]; ok {
		v := m.env[ei].box()
		if mv, ok := v.(*MapVal); ok {
			v = CloneValue(mv)
		}
		return v, true
	}
	return nil, false
}

func (m *rvmSeed) TakeActionCount() int {
	n := m.actions
	m.actions = 0
	return n
}

func (m *rvmSeed) Snapshot() Snapshot {
	env := make(map[string]Value, len(m.env))
	for i, s := range m.lp.p.EnvSlots {
		env[s.Name] = CloneValue(m.env[i].box())
	}
	sv := make(map[string]map[string]Value, len(m.states))
	for si := range m.lp.p.States {
		slots := m.lp.p.States[si].Slots
		vars := make(map[string]Value, len(slots))
		for i, s := range slots {
			vars[s.Name] = CloneValue(m.states[si][i].box())
		}
		sv[m.lp.p.States[si].Name] = vars
	}
	return Snapshot{Machine: m.lp.p.Machine, State: m.State(), Env: env, StateVars: sv}
}

func (m *rvmSeed) Restore(snap Snapshot) error {
	if snap.Machine != m.lp.p.Machine {
		return fmt.Errorf("core: snapshot of %s cannot restore into %s", snap.Machine, m.lp.p.Machine)
	}
	tgt, ok := m.lp.stateIdx[snap.State]
	if !ok {
		return fmt.Errorf("core: snapshot state %s unknown", snap.State)
	}
	lp := m.lp
	err := snap.checkNames(
		func(k string) bool { _, ok := lp.envIdx[k]; return ok },
		func(st string) bool { _, ok := lp.stateIdx[st]; return ok },
		func(st, k string) bool { _, ok := lp.svIdx[lp.stateIdx[st]][k]; return ok })
	if err != nil {
		return err
	}
	for k, v := range snap.Env {
		m.env[lp.envIdx[k]] = unbox(CloneValue(v))
	}
	for st, vars := range snap.StateVars {
		si := lp.stateIdx[st]
		for k, v := range vars {
			m.states[si][lp.svIdx[si][k]] = unbox(CloneValue(v))
		}
	}
	m.state = tgt
	m.started = true
	return nil
}

// chunkResult is what a chunk halts with.
type chunkResult struct {
	kind    ctrl
	transit int32
	val     rval
}

func opSym(op almanac.ROp) string {
	switch op {
	case almanac.RAdd:
		return "+"
	case almanac.RSub:
		return "-"
	case almanac.RMul:
		return "*"
	case almanac.RDiv:
		return "/"
	case almanac.RLt:
		return "<"
	case almanac.RLe:
		return "<="
	case almanac.RGt:
		return ">"
	case almanac.RGe:
		return ">="
	}
	return "?"
}

// setBoolR writes a comparison result touching only the discriminant
// and its payload; readers never look at the other fields, so skipping
// them avoids rewriting the whole rval.
func setBoolR(l *rval, b bool) {
	l.k = rkBool
	if b {
		l.i = 1
	} else {
		l.i = 0
	}
}

// binOp implements + - * / < <= > >= with the interpreter's exact
// semantics: string/list concatenation for +, int64 arithmetic when
// both operands are longs, the shared almanac float table otherwise.
func (m *rvmSeed) binOp(op almanac.ROp, line int32, l, r rval) (rval, error) {
	if l.k == rkInt && r.k == rkInt {
		switch op {
		case almanac.RAdd:
			return rint(l.i + r.i), nil
		case almanac.RSub:
			return rint(l.i - r.i), nil
		case almanac.RMul:
			return rint(l.i * r.i), nil
		case almanac.RDiv:
			if r.i == 0 {
				return rval{}, fmt.Errorf("core: division by zero (line %d)", line)
			}
			return rint(l.i / r.i), nil
		case almanac.RLt:
			return rbool(l.i < r.i), nil
		case almanac.RLe:
			return rbool(l.i <= r.i), nil
		case almanac.RGt:
			return rbool(l.i > r.i), nil
		case almanac.RGe:
			return rbool(l.i >= r.i), nil
		}
	}
	if op == almanac.RAdd {
		if l.k == rkStr && r.k == rkStr {
			return rstr(l.asStr() + r.asStr()), nil
		}
		l, r = l.materialised(), r.materialised()
		if l.k == rkRef && r.k == rkRef {
			if ll, ok := l.ref.(List); ok {
				if rl, ok := r.ref.(List); ok {
					out := make(List, 0, len(ll)+len(rl))
					out = append(out, ll...)
					return rref(append(out, rl...)), nil
				}
			}
		}
	}
	lf, lok := asFloatR(l)
	rf, rok := asFloatR(r)
	if !lok || !rok {
		return rval{}, fmt.Errorf("core: %s %s %s is not defined (line %d)", typeNameR(l), opSym(op), typeNameR(r), line)
	}
	if res, ok, err := almanac.NumArith(opSym(op), lf, rf); ok {
		if err != nil {
			return rval{}, fmt.Errorf("core: %v (line %d)", err, line)
		}
		return rfloat(res), nil
	}
	res, _ := almanac.NumCompare(opSym(op), lf, rf)
	return rbool(res), nil
}

// fieldOp mirrors evalField/packetField.
func (m *rvmSeed) fieldOp(x rval, field string, line int32) (rval, error) {
	if x.k == rkPacket {
		return m.packetField(x.ref.(*PacketVal), field, line)
	}
	if x.k == rkRef {
		switch v := x.ref.(type) {
		case StructVal:
			f, ok := v.Get(field)
			if !ok {
				return rval{}, fmt.Errorf("core: struct %s has no field %s (line %d)", v.Type(), field, line)
			}
			return unbox(f), nil
		case ResourcesVal:
			r, ok := netmodel.ResByName(field)
			if !ok {
				return rval{}, fmt.Errorf("core: resources have no field %s (line %d)", field, line)
			}
			return rfloat(v[r]), nil
		case *MapVal:
			return v.field(field), nil
		case PacketVal:
			return m.packetField(&v, field, line)
		}
	}
	return rval{}, fmt.Errorf("core: %s has no fields (line %d)", typeNameR(x), line)
}

// packetField mirrors the interpreter's packetField without boxing;
// address and protocol text come pre-boxed.
func (m *rvmSeed) packetField(p *PacketVal, field string, line int32) (rval, error) {
	switch field {
	case "srcIP":
		return m.addrStr(p.SrcIP), nil
	case "dstIP":
		return m.addrStr(p.DstIP), nil
	case "srcPort":
		return rint(int64(p.SrcPort)), nil
	case "dstPort":
		return rint(int64(p.DstPort)), nil
	case "proto":
		return rval{k: rkStr, ref: protoText[p.Proto]}, nil
	case "size":
		return rint(int64(p.Size)), nil
	case "syn":
		return rbool(p.Flags.Has(flagSYN)), nil
	case "ack":
		return rbool(p.Flags.Has(flagACK)), nil
	case "fin":
		return rbool(p.Flags.Has(flagFIN)), nil
	case "rst":
		return rbool(p.Flags.Has(flagRST)), nil
	case "dnsResponse":
		return rbool(p.App.DNSResponse), nil
	case "dnsQName":
		return rstr(p.App.DNSQName), nil
	case "sshAuthFail":
		return rbool(p.App.SSHAuthFail), nil
	case "httpPartial":
		return rbool(p.App.HTTPPartial), nil
	case "flow":
		return m.flowStr(dataplanePacket(*p).Flow()), nil
	}
	return rval{}, fmt.Errorf("core: packet has no field %s (line %d)", field, line)
}

// filterAtomOp mirrors evalFilterAtom (the non-ANY path).
func filterAtomOp(arg rval, field string, line int32) (rval, error) {
	var c almanac.Const
	switch arg.k {
	case rkInt:
		c = almanac.NumConst(float64(arg.i))
	case rkFloat:
		c = almanac.NumConst(arg.f)
	case rkStr:
		c = almanac.StrConst(arg.asStr())
	default:
		return rval{}, fmt.Errorf("core: filter field %s: unsupported argument %s (line %d)", field, typeNameR(arg), line)
	}
	fc, err := almanac.BuildFilterAtom(field, c)
	if err != nil {
		return rval{}, fmt.Errorf("core: %w (line %d)", err, line)
	}
	return rref(FilterVal{F: fc.Filter, PortAny: fc.PortAny}), nil
}

// fieldAssign mirrors execAssign's struct-field path on the variable
// in cur. A row of a poll batch is read-only and possibly shared with
// other seeds: the write first copies it out into a private struct that
// replaces the row in the variable.
func fieldAssign(fa *almanac.FieldAssignSite, cur *rval, v rval) error {
	*cur = cur.materialised()
	var sv StructVal
	ok := cur.k == rkRef
	if ok {
		sv, ok = cur.ref.(StructVal)
	}
	if !ok {
		return fmt.Errorf("core: %s is %s, not a struct", fa.Target, typeNameR(*cur))
	}
	if !sv.Set(fa.Field, v.box()) {
		return fmt.Errorf("core: struct %s has no field %s", sv.Type(), fa.Field)
	}
	return nil
}
