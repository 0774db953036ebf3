package core

import (
	"errors"
	"fmt"

	"farm/internal/almanac"
)

// The register VM's dispatch half: handler entry points, the transition
// cascade, and the loop that executes the register form of a lowered
// program (almanac.RegChunk) with the same observable behaviour as the
// AST interpreter — the parity storms pin states, snapshots, host-effect
// traces, action counts, and error strings. Operands are read in place
// from registers, literals, and slots, and struct field reads resolve
// through per-site inline caches keyed on the record's interned layout,
// so the hot path does no map hashing. The seed struct, its frames and
// the slow paths live in vm.go.

// ctrl describes how a chunk terminated.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlTransit
)

// maxTransitChain bounds enter/exit cascades so a buggy machine cannot
// loop the soil forever.
const maxTransitChain = 64

// maxWhileIterations bounds loops so a buggy machine cannot wedge the
// event loop.
const maxWhileIterations = 1_000_000

// maxCallDepth bounds nested calls of auxiliary functions, so a function
// that never bottoms out fails its handler instead of overflowing the Go
// stack of the process that hosts the soil. Both executors count the
// same activations and fail with errCallDepth at the same call.
const maxCallDepth = 200

func errCallDepth(fn string, line int) error {
	return fmt.Errorf("core: call of %s nests deeper than %d (runaway recursion?) (line %d)", fn, maxCallDepth, line)
}

func (m *rvmSeed) Start() error {
	if m.started {
		return fmt.Errorf("core: seed %s already started", m.lp.p.Machine)
	}
	m.started = true
	if ci := m.lp.p.States[m.state].Enter; ci >= 0 {
		return m.runTop(ci, nil, 0)
	}
	return nil
}

func (m *rvmSeed) HandleTrigger(varName string, data Value) error {
	ti, ok := m.lp.trigIdx[varName]
	if !ok {
		return nil
	}
	ci := m.lp.p.States[m.state].OnVar[ti]
	if ci < 0 {
		return nil
	}
	if !m.lp.p.RegChunks[ci].HasBind {
		return m.runTop(ci, nil, 0)
	}
	switch x := data.(type) {
	case *PacketVal:
		m.bindBuf[0] = rval{k: rkPacket, ref: x}
		err := m.runTop(ci, m.bindBuf[:1], 0)
		m.keepPackets()
		return err
	case *Batch:
		m.bindBuf[0] = rval{k: rkBatch, ref: x}
		err := m.runTop(ci, m.bindBuf[:1], 0)
		m.noteKept(x)
		return err
	}
	m.bindBuf[0] = unbox(data)
	return m.runTop(ci, m.bindBuf[:1], 0)
}

// noteKept ends a handler run that was handed a poll batch. The soil
// rewrites the batch for its next completion unless a handler kept it,
// and the env and state slots are the only places a run can leave the
// batch or one of its rows (every other place materialises them), so
// any such slot marks the batch kept. Like keepPackets, this is one scan
// per delivery instead of a check on every slot store.
func (m *rvmSeed) noteKept(b *Batch) {
	if b.kept {
		return
	}
	for i := range m.env {
		if holds(&m.env[i], b) {
			b.kept = true
			return
		}
	}
	for _, fr := range m.states {
		for i := range fr {
			if holds(&fr[i], b) {
				b.kept = true
				return
			}
		}
	}
}

// holds reports whether r is batch b or one of its rows.
func holds(r *rval, b *Batch) bool {
	if r.k != rkBatch && r.k != rkRow {
		return false
	}
	p, _ := r.ref.(*Batch)
	return p == b
}

// keepPackets ends a handler run that read a lent packet in place. The
// env and state slots outlive the run and the packet does not, so any
// slot the handler (or a state it entered) left referring to it gets a
// private copy now, while the packet is still the one that was lent.
// Done here, once per probe, rather than on every slot store: stores are
// the dispatch loop's hottest path and nearly none of them see a packet.
func (m *rvmSeed) keepPackets() {
	for i := range m.env {
		if m.env[i].k == rkPacket {
			m.env[i] = m.env[i].materialised()
		}
	}
	for _, fr := range m.states {
		for i := range fr {
			if fr[i].k == rkPacket {
				fr[i] = fr[i].materialised()
			}
		}
	}
}

func (m *rvmSeed) HandleRecv(from MsgSource, v Value) error {
	st := &m.lp.p.States[m.state]
	for i := range st.Recvs {
		rc := &st.Recvs[i]
		if !recvMatches(rc.Trigger, from, v) {
			continue
		}
		if m.lp.p.RegChunks[rc.Chunk].HasBind {
			m.bindBuf[0] = unbox(CloneValue(v))
			return m.runTop(rc.Chunk, m.bindBuf[:1], 0)
		}
		return m.runTop(rc.Chunk, nil, 0)
	}
	return nil
}

func (m *rvmSeed) HandleRealloc() error {
	if ci := m.lp.p.States[m.state].Realloc; ci >= 0 {
		return m.runTop(ci, nil, 0)
	}
	return nil
}

func (m *rvmSeed) runTop(ci int32, args []rval, depth int) error {
	if depth > maxTransitChain {
		return fmt.Errorf("core: seed %s: transition chain exceeds %d (state-machine loop?)", m.lp.p.Machine, maxTransitChain)
	}
	res, err := m.runChunk(ci, args)
	if err != nil {
		return err
	}
	if res.kind == ctrlTransit {
		return m.transitionTo(res.transit, depth+1)
	}
	return nil
}

// transitionTo switches to state target, a state of the program: a
// handler's transit names one (sema and Lower see to it), and a
// function's, which names none, fails at its call.
func (m *rvmSeed) transitionTo(target int32, depth int) error {
	old := &m.lp.p.States[m.state]
	if old.Exit >= 0 {
		res, err := m.runChunk(old.Exit, nil)
		if err != nil {
			return err
		}
		if res.kind == ctrlTransit {
			return fmt.Errorf("core: seed %s: transit inside exit handler is not allowed", m.lp.p.Machine)
		}
	}
	m.state = target
	if ci := m.lp.p.States[target].Enter; ci >= 0 {
		return m.runTop(ci, nil, depth)
	}
	return nil
}

// runChunk executes one register chunk: carve a frame window out of the
// arena, bind the arguments, clear the remaining locals, and leave the
// temporaries dirty (every temporary read is dominated by a write by
// construction, and so is every local read: sema resolved each one to
// a declaration that runs first).
func (m *rvmSeed) runChunk(ci int32, args []rval) (chunkResult, error) {
	ch := &m.lp.p.RegChunks[ci]
	base := m.rbase
	need := base + int(ch.NumRegs)
	if need > len(m.regs) {
		nr := make([]rval, need*2+16)
		copy(nr, m.regs[:base])
		m.regs = nr
	}
	regs := m.regs[base:need:need]
	n := copy(regs, args)
	for i := n; i < int(ch.NumLocals); i++ {
		regs[i] = rval{}
	}
	m.rbase = need
	res, err := m.run(ch, base)
	m.rbase = base
	return res, err
}

// opndBases maps each operand class to its backing storage so reads
// decode without a data-dependent branch: the class bits index the
// table, the offset bits index the slice. A branchy decode mispredicts
// badly in loops because one switch case serves register and literal
// operands on alternating pcs; two dependent loads do not.
type opndBases [4][]rval

func (t *opndBases) rd(o int32) rval {
	return t[o>>almanac.ROpndShift][o&almanac.ROpndMask]
}

// wrOpnd writes a class-tagged destination (register, env, or state
// slot — stores retargeted by the translator write slots directly).
func wrOpnd(d int32, v rval, regs, env, stf []rval) {
	if d <= almanac.ROpndMask {
		regs[d] = v
		return
	}
	i := d & almanac.ROpndMask
	if d>>almanac.ROpndShift == almanac.RClassEnv {
		env[i] = v
	} else {
		stf[i] = v
	}
}

// slotOf returns the register or slot a class-tagged destination names.
func slotOf(d int32, regs, env, stf []rval) *rval {
	i := d & almanac.ROpndMask
	switch d >> almanac.ROpndShift {
	case almanac.RClassEnv:
		return &env[i]
	case almanac.RClassSt:
		return &stf[i]
	}
	return &regs[i]
}

// cmpSlow resolves a fused compare-and-branch whose operands were not
// both numeric (the inline tiers cover those): a numeric left against a
// non-numeric right gets the comparison error, everything else goes to
// binOp for the unfused comparison's error strings.
func (m *rvmSeed) cmpSlow(op almanac.ROp, l, r rval, line int32) (bool, error) {
	if _, lok := asFloatR(l); lok {
		return false, fmt.Errorf("core: %s %s %s is not defined (line %d)",
			typeNameR(l), opSym(op), typeNameR(r), line)
	}
	v, err := m.binOp(op, line, l, r)
	if err != nil {
		return false, err
	}
	return v.i != 0, nil
}

func (m *rvmSeed) run(ch *almanac.RegChunk, base int) (chunkResult, error) {
	lp := m.lp
	p := lp.p
	lits := lp.lits
	env := m.env
	stf := m.states[m.state] // fixed for the chunk: transit exits it
	regs := m.regs[base : base+int(ch.NumRegs)]
	bases := opndBases{almanac.RClassReg: regs, almanac.RClassLit: lits, almanac.RClassEnv: env, almanac.RClassSt: stf}
	code := ch.Code
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		// Folded per-statement accounting. The guard keeps the serial
		// load-add-store chain through m.actions as short as the real
		// statement count instead of one RMW per dispatch.
		if in.Step != 0 {
			m.actions += int(in.Step)
		}
		switch in.Op {
		case almanac.RNop:

		case almanac.RMove:
			wrOpnd(in.Dst, bases.rd(in.A), regs, env, stf)

		case almanac.RZero:
			wrOpnd(in.Dst, zeroRval(almanac.Type(in.A)), regs, env, stf)

		case almanac.RBindExternal:
			v := regs[in.A]
			if v.k == rkUndef {
				v = env[in.B]
			}
			wrOpnd(in.Dst, v, regs, env, stf)

		case almanac.RJump:
			pc = int(in.A) - 1

		case almanac.RJF:
			b, err := truthyR(bases.rd(in.A))
			if err != nil {
				return chunkResult{}, err
			}
			if !b {
				pc = int(in.B) - 1
			}

		case almanac.RLoopInit:
			regs[in.A] = rint(0)

		case almanac.RLoopCheck:
			if regs[in.A].i >= maxWhileIterations {
				return chunkResult{}, fmt.Errorf("core: while loop exceeded %d iterations (line %d)", maxWhileIterations, in.Line)
			}
			regs[in.A].i++

		case almanac.RTransit:
			return chunkResult{kind: ctrlTransit, transit: in.A}, nil

		case almanac.RReturn:
			res := chunkResult{kind: ctrlReturn, val: rval{k: rkNil}}
			if in.A >= 0 {
				res.val = bases.rd(in.A)
			}
			return res, nil

		case almanac.RNot:
			b, err := truthyR(bases.rd(in.A))
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, rbool(!b), regs, env, stf)

		case almanac.RNeg:
			v := bases.rd(in.A)
			switch v.k {
			case rkInt:
				v.i = -v.i
			case rkFloat:
				v.f = -v.f
			default:
				return chunkResult{}, fmt.Errorf("core: unary - on %s", typeNameR(v))
			}
			wrOpnd(in.Dst, v, regs, env, stf)

		case almanac.REq:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			wrOpnd(in.Dst, rbool(eqR(l, r)), regs, env, stf)

		case almanac.RNe:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			wrOpnd(in.Dst, rbool(!eqR(l, r)), regs, env, stf)

		case almanac.RJEq:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if !eqR(l, r) {
				pc = int(in.C) - 1
			}

		case almanac.RJNe:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if eqR(l, r) {
				pc = int(in.C) - 1
			}

		// Fused compare-and-branch and the numeric operators get one
		// dispatch case per opcode: a single jump-table hit selects the
		// operation, with the long/long and float/float tiers inline and
		// everything else (mixed promotion, strings, lists, division by
		// zero) in the shared slow helpers below.
		case almanac.RJLt:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			var b bool
			if l.k == rkInt && r.k == rkInt {
				b = l.i < r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				b = l.f < r.f
			} else if l.k == rkInt && r.k == rkFloat {
				b = float64(l.i) < r.f
			} else if l.k == rkFloat && r.k == rkInt {
				b = l.f < float64(r.i)
			} else {
				var err error
				if b, err = m.cmpSlow(almanac.RLt, l, r, in.Line); err != nil {
					return chunkResult{}, err
				}
			}
			if !b {
				pc = int(in.C) - 1
			}

		case almanac.RJLe:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			var b bool
			if l.k == rkInt && r.k == rkInt {
				b = l.i <= r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				b = l.f <= r.f
			} else if l.k == rkInt && r.k == rkFloat {
				b = float64(l.i) <= r.f
			} else if l.k == rkFloat && r.k == rkInt {
				b = l.f <= float64(r.i)
			} else {
				var err error
				if b, err = m.cmpSlow(almanac.RLe, l, r, in.Line); err != nil {
					return chunkResult{}, err
				}
			}
			if !b {
				pc = int(in.C) - 1
			}

		case almanac.RJGt:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			var b bool
			if l.k == rkInt && r.k == rkInt {
				b = l.i > r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				b = l.f > r.f
			} else if l.k == rkInt && r.k == rkFloat {
				b = float64(l.i) > r.f
			} else if l.k == rkFloat && r.k == rkInt {
				b = l.f > float64(r.i)
			} else {
				var err error
				if b, err = m.cmpSlow(almanac.RGt, l, r, in.Line); err != nil {
					return chunkResult{}, err
				}
			}
			if !b {
				pc = int(in.C) - 1
			}

		case almanac.RJGe:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			var b bool
			if l.k == rkInt && r.k == rkInt {
				b = l.i >= r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				b = l.f >= r.f
			} else if l.k == rkInt && r.k == rkFloat {
				b = float64(l.i) >= r.f
			} else if l.k == rkFloat && r.k == rkInt {
				b = l.f >= float64(r.i)
			} else {
				var err error
				if b, err = m.cmpSlow(almanac.RGe, l, r, in.Line); err != nil {
					return chunkResult{}, err
				}
			}
			if !b {
				pc = int(in.C) - 1
			}

		case almanac.RMulAdd:
			// Fused multiply feeding an add. The operand C read happens
			// after the product but before the destination write, exactly
			// like the unfused pair (C may alias Dst).
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				l.i *= r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				l.f *= r.f
			} else if l.k == rkInt && r.k == rkFloat {
				l.k, l.f = rkFloat, float64(l.i)*r.f
			} else if l.k == rkFloat && r.k == rkInt {
				l.f *= float64(r.i)
			} else {
				v, err := m.binOp(almanac.RMul, in.Line, l, r)
				if err != nil {
					return chunkResult{}, err
				}
				l = v
			}
			c := bases.rd(in.C)
			if l.k == rkInt && c.k == rkInt {
				l.i += c.i
			} else if l.k == rkFloat && c.k == rkFloat {
				l.f += c.f
			} else if l.k == rkInt && c.k == rkFloat {
				l.k, l.f = rkFloat, float64(l.i)+c.f
			} else if l.k == rkFloat && c.k == rkInt {
				l.f += float64(c.i)
			} else {
				v, err := m.binOp(almanac.RAdd, in.Line, l, c)
				if err != nil {
					return chunkResult{}, err
				}
				l = v
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RAdd:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				l.i += r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				l.f += r.f
			} else if l.k == rkInt && r.k == rkFloat {
				l.k, l.f = rkFloat, float64(l.i)+r.f
			} else if l.k == rkFloat && r.k == rkInt {
				l.f += float64(r.i)
			} else {
				// Non-numeric add (string/list concat, type errors) is
				// binOp's; its result may be a reference, so this is the
				// one tier that takes the full write.
				v, err := m.binOp(almanac.RAdd, in.Line, l, r)
				if err != nil {
					return chunkResult{}, err
				}
				wrOpnd(in.Dst, v, regs, env, stf)
				break
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RSub:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				l.i -= r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				l.f -= r.f
			} else if l.k == rkInt && r.k == rkFloat {
				l.k, l.f = rkFloat, float64(l.i)-r.f
			} else if l.k == rkFloat && r.k == rkInt {
				l.f -= float64(r.i)
			} else {
				v, err := m.binOp(almanac.RSub, in.Line, l, r)
				if err != nil {
					return chunkResult{}, err
				}
				wrOpnd(in.Dst, v, regs, env, stf)
				break
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RMul:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				l.i *= r.i
			} else if l.k == rkFloat && r.k == rkFloat {
				l.f *= r.f
			} else if l.k == rkInt && r.k == rkFloat {
				l.k, l.f = rkFloat, float64(l.i)*r.f
			} else if l.k == rkFloat && r.k == rkInt {
				l.f *= float64(r.i)
			} else {
				v, err := m.binOp(almanac.RMul, in.Line, l, r)
				if err != nil {
					return chunkResult{}, err
				}
				wrOpnd(in.Dst, v, regs, env, stf)
				break
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RDiv:
			// Division by zero falls to binOp for the shared error.
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt && r.i != 0 {
				l.i /= r.i
			} else if l.k == rkFloat && r.k == rkFloat && r.f != 0 {
				l.f /= r.f
			} else if l.k == rkInt && r.k == rkFloat && r.f != 0 {
				l.k, l.f = rkFloat, float64(l.i)/r.f
			} else if l.k == rkFloat && r.k == rkInt && r.i != 0 {
				l.f /= float64(r.i)
			} else {
				v, err := m.binOp(almanac.RDiv, in.Line, l, r)
				if err != nil {
					return chunkResult{}, err
				}
				wrOpnd(in.Dst, v, regs, env, stf)
				break
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RLt:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				setBoolR(&l, l.i < r.i)
			} else if l.k == rkFloat && r.k == rkFloat {
				setBoolR(&l, l.f < r.f)
			} else if l.k == rkInt && r.k == rkFloat {
				setBoolR(&l, float64(l.i) < r.f)
			} else if l.k == rkFloat && r.k == rkInt {
				setBoolR(&l, l.f < float64(r.i))
			} else {
				var err error
				if l, err = m.binOp(almanac.RLt, in.Line, l, r); err != nil {
					return chunkResult{}, err
				}
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RLe:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				setBoolR(&l, l.i <= r.i)
			} else if l.k == rkFloat && r.k == rkFloat {
				setBoolR(&l, l.f <= r.f)
			} else if l.k == rkInt && r.k == rkFloat {
				setBoolR(&l, float64(l.i) <= r.f)
			} else if l.k == rkFloat && r.k == rkInt {
				setBoolR(&l, l.f <= float64(r.i))
			} else {
				var err error
				if l, err = m.binOp(almanac.RLe, in.Line, l, r); err != nil {
					return chunkResult{}, err
				}
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RGt:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				setBoolR(&l, l.i > r.i)
			} else if l.k == rkFloat && r.k == rkFloat {
				setBoolR(&l, l.f > r.f)
			} else if l.k == rkInt && r.k == rkFloat {
				setBoolR(&l, float64(l.i) > r.f)
			} else if l.k == rkFloat && r.k == rkInt {
				setBoolR(&l, l.f > float64(r.i))
			} else {
				var err error
				if l, err = m.binOp(almanac.RGt, in.Line, l, r); err != nil {
					return chunkResult{}, err
				}
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RGe:
			l := bases.rd(in.A)
			r := bases.rd(in.B)
			if l.k == rkInt && r.k == rkInt {
				setBoolR(&l, l.i >= r.i)
			} else if l.k == rkFloat && r.k == rkFloat {
				setBoolR(&l, l.f >= r.f)
			} else if l.k == rkInt && r.k == rkFloat {
				setBoolR(&l, float64(l.i) >= r.f)
			} else if l.k == rkFloat && r.k == rkInt {
				setBoolR(&l, l.f >= float64(r.i))
			} else {
				var err error
				if l, err = m.binOp(almanac.RGe, in.Line, l, r); err != nil {
					return chunkResult{}, err
				}
			}
			wrOpnd(in.Dst, l, regs, env, stf)

		case almanac.RTruthy:
			b, err := truthyR(bases.rd(in.A))
			if err != nil {
				return chunkResult{}, err
			}
			regs[in.Dst] = rbool(b)

		case almanac.RAndL:
			l := bases.rd(in.A)
			if l.k == rkRef {
				if _, ok := l.ref.(FilterVal); ok {
					regs[in.Dst] = l // leave the filter for RAndR
					break
				}
			}
			b, err := truthyR(l)
			if err != nil {
				return chunkResult{}, err
			}
			if !b {
				regs[in.Dst] = rbool(false)
				pc = int(in.B) - 1
				break
			}
			regs[in.Dst] = rval{k: rkMark}

		case almanac.RAndR:
			r := bases.rd(in.A)
			mark := regs[in.Dst]
			if mark.k == rkMark {
				b, err := truthyR(r)
				if err != nil {
					return chunkResult{}, err
				}
				regs[in.Dst] = rbool(b)
				break
			}
			lf := mark.ref.(FilterVal)
			rf, ok := r.ref.(FilterVal)
			if r.k != rkRef || !ok {
				return chunkResult{}, fmt.Errorf("core: filter and %s", typeNameR(r))
			}
			lc := almanac.FilterConst(lf.F)
			lc.PortAny = lf.PortAny
			rc := almanac.FilterConst(rf.F)
			rc.PortAny = rf.PortAny
			merged, err := almanac.MergeFilterConsts(lc, rc)
			if err != nil {
				return chunkResult{}, err
			}
			regs[in.Dst] = rref(FilterVal{F: merged.Filter, PortAny: merged.PortAny})

		case almanac.ROrL:
			b, err := truthyR(bases.rd(in.A))
			if err != nil {
				return chunkResult{}, err
			}
			if b {
				regs[in.Dst] = rbool(true)
				pc = int(in.B) - 1
			}

		case almanac.RField:
			x := bases.rd(in.A)
			if x.k == rkRow {
				b := x.ref.(*Batch)
				c := &m.fc[in.C]
				if c.l == b.l {
					wrOpnd(in.Dst, rint(b.at(int(x.i), int(c.slot))), regs, env, stf)
					break
				}
				if i := b.l.Index(p.Names[in.B]); i >= 0 {
					c.l, c.slot = b.l, int32(i)
					wrOpnd(in.Dst, rint(b.at(int(x.i), i)), regs, env, stf)
					break
				}
				x = x.materialised() // unknown field: the struct path owns the error
			}
			if x.k == rkRef {
				if sv, ok := x.ref.(StructVal); ok {
					c := &m.fc[in.C]
					if c.l == sv.L {
						wrOpnd(in.Dst, unbox(sv.V[c.slot]), regs, env, stf)
						break
					}
					if i := sv.L.Index(p.Names[in.B]); i >= 0 {
						c.l, c.slot = sv.L, int32(i)
						wrOpnd(in.Dst, unbox(sv.V[i]), regs, env, stf)
						break
					}
					return chunkResult{}, fmt.Errorf("core: struct %s has no field %s (line %d)", sv.Type(), p.Names[in.B], in.Line)
				}
			}
			v, err := m.fieldOp(x, p.Names[in.B], in.Line)
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, v, regs, env, stf)

		case almanac.RFilterAtom:
			v, err := filterAtomOp(bases.rd(in.A), p.Names[in.B], in.Line)
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, v, regs, env, stf)

		case almanac.RFilterAny:
			wrOpnd(in.Dst, rref(FilterVal{PortAny: true}), regs, env, stf)

		case almanac.RStructLit:
			l := lp.layouts[in.A]
			n := len(l.Names)
			fields := make([]Value, n)
			for i := 0; i < n; i++ {
				fields[i] = regs[int(in.B)+i].box()
			}
			wrOpnd(in.Dst, rref(StructVal{L: l, V: fields}), regs, env, stf)

		case almanac.RListLit:
			n := int(in.B)
			out := make(List, 0, n)
			for i := 0; i < n; i++ {
				out = append(out, regs[int(in.A)+i].box())
			}
			wrOpnd(in.Dst, rref(out), regs, env, stf)

		case almanac.RListLen:
			v := bases.rd(in.B)
			if v.k == rkBatch {
				wrOpnd(in.Dst, rint(int64(v.ref.(*Batch).Len())), regs, env, stf)
				break
			}
			if l, ok := asListR(v); ok {
				wrOpnd(in.Dst, rint(int64(len(l))), regs, env, stf)
				break
			}
			m.nargs[0] = v
			res, err := lp.natives[in.A](m.host, m.nargs[:1], in.Line)
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, res, regs, env, stf)

		case almanac.RListGet:
			lv := bases.rd(in.B)
			iv := bases.rd(in.C)
			if lv.k == rkBatch {
				// A row reference: no record is built unless it escapes.
				// Out of range falls through to the native's error.
				if idx, ok := asFloatR(iv); ok {
					if i := int(idx); i >= 0 && i < lv.ref.(*Batch).Len() {
						wrOpnd(in.Dst, rval{k: rkRow, i: int64(i), ref: lv.ref}, regs, env, stf)
						break
					}
				}
			} else if l, ok := asListR(lv); ok {
				if idx, ok2 := asFloatR(iv); ok2 {
					if i := int(idx); i >= 0 && i < len(l) {
						wrOpnd(in.Dst, unbox(l[i]), regs, env, stf)
						break
					}
				}
			}
			m.nargs[0], m.nargs[1] = lv, iv
			res, err := lp.natives[in.A](m.host, m.nargs[:2], in.Line)
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, res, regs, env, stf)

		case almanac.RCallB, almanac.RCallB2:
			var argv []rval
			if in.Op == almanac.RCallB {
				argv = regs[in.B : in.B+in.C]
			} else {
				argc := 0
				if in.B >= 0 {
					m.nargs[0] = bases.rd(in.B)
					argc = 1
					if in.C >= 0 {
						m.nargs[1] = bases.rd(in.C)
						argc = 2
					}
				}
				argv = m.nargs[:argc]
			}
			res, err := lp.natives[in.A](m.host, argv, in.Line)
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, res, regs, env, stf)

		case almanac.RCallFn:
			fn := &p.Funcs[in.A]
			if m.depth >= maxCallDepth {
				return chunkResult{}, errCallDepth(fn.Name, int(in.Line))
			}
			m.depth++
			res, err := m.runChunk(fn.Chunk, regs[in.B:in.B+in.C])
			m.depth--
			regs = m.regs[base : base+int(ch.NumRegs)] // callee may grow the arena
			bases[almanac.RClassReg] = regs
			if err != nil {
				return chunkResult{}, err
			}
			if res.kind == ctrlTransit {
				return chunkResult{}, fmt.Errorf("core: transit inside function %s is not allowed", fn.Name)
			}
			v := res.val
			if res.kind != ctrlReturn {
				v = rval{k: rkNil}
			}
			wrOpnd(in.Dst, v, regs, env, stf)

		case almanac.RStep:
			m.actions++

		case almanac.RSend:
			site := &p.Sends[in.A]
			dest := SendDest{Harvester: site.Harvester, Machine: site.Machine}
			if in.C >= 0 {
				d := bases.rd(in.C)
				if d.k != rkStr {
					return chunkResult{}, fmt.Errorf("core: send destination must be a string, got %s", typeNameR(d))
				}
				dest.Dst = d.asStr()
			}
			m.host.Send(dest, sendValue(bases.rd(in.B)))

		case almanac.RSetIval:
			v := bases.rd(in.B)
			name := p.Names[in.A]
			ms, ok := asFloatR(v)
			if !ok || ms <= 0 {
				return chunkResult{}, fmt.Errorf("core: trigger %s.ival must be a positive number, got %s", name, FormatValue(v.box()))
			}
			m.host.SetTriggerInterval(name, ms)

		case almanac.RSetTrigger:
			v := bases.rd(in.B).materialised()
			name := p.Names[in.A]
			var sv StructVal
			ok := v.k == rkRef
			if ok {
				sv, ok = v.ref.(StructVal)
			}
			if !ok {
				return chunkResult{}, fmt.Errorf("core: trigger %s must be assigned a Poll/Probe value", name)
			}
			ivalV, ok := sv.Get("ival")
			if !ok {
				return chunkResult{}, fmt.Errorf("core: trigger %s reassignment needs .ival", name)
			}
			ms, ok := AsFloat(ivalV)
			if !ok || ms <= 0 {
				return chunkResult{}, fmt.Errorf("core: trigger %s.ival must be a positive number", name)
			}
			m.host.SetTriggerInterval(name, ms)

		case almanac.RFieldAssign:
			fa := &p.FieldAssigns[in.A]
			if err := fieldAssign(fa, slotOf(fa.Dst, regs, env, stf), bases.rd(in.B)); err != nil {
				return chunkResult{}, err
			}

		case almanac.RMapReset:
			// `x = map_new()` on a private map: no other name can hold
			// x's map, so emptying it is the same as replacing it.
			if v := bases.rd(in.Dst); v.k == rkRef {
				if mv, ok := v.ref.(*MapVal); ok {
					mv.reset()
					break
				}
			}
			wrOpnd(in.Dst, rref(NewMap()), regs, env, stf)

		case almanac.RMapGetNew:
			m.nargs[0], m.nargs[1] = bases.rd(in.B), bases.rd(in.C)
			if mv, ok := m.nargs[0].ref.(*MapVal); ok {
				if i := mv.find(&m.nargs[1]); i >= 0 {
					wrOpnd(in.Dst, mv.slots[i].val, regs, env, stf)
				} else {
					wrOpnd(in.Dst, rref(NewMap()), regs, env, stf)
				}
				break
			}
			// Not a map: map_get's own answer (its error), default and all.
			args := []rval{m.nargs[0], m.nargs[1], rref(NewMap())}
			res, err := lp.natives[in.A](m.host, args, in.Line)
			if err != nil {
				return chunkResult{}, err
			}
			wrOpnd(in.Dst, res, regs, env, stf)

		case almanac.RErr:
			return chunkResult{}, errors.New(p.Errs[in.A])

		default:
			return chunkResult{}, fmt.Errorf("core: rvm: unknown opcode %d", in.Op)
		}
	}
	return chunkResult{val: rval{k: rkNil}}, nil
}
