package almanac

import "fmt"

// Register code: the 3-address form over a per-chunk virtual register
// file that Lower emits and internal/core's VM executes, and the
// emitter the AST walk in lower.go drives. Its semantics are the
// interpreter's (the parity storms in internal/core pin this).
//
// Register file layout for a chunk: registers [0, NumLocals) are the
// chunk's locals (event binding or parameters, then every declared
// name, then one hidden counter per while loop); registers [NumLocals,
// NumRegs) are expression temporaries. The emitter keeps an abstract
// operand stack whose depth is the expression nesting; the canonical
// temporary for depth i is register NumLocals+i, so contiguous argument
// runs for calls and literals can be windowed without extra moves.
//
// Operands are class-tagged int32s (see ROpnd*): a plain register, a
// literal-pool index, a machine-env slot, or a current-state slot.
// Loads of literals, env slots, state slots and locals are *deferred* —
// no instruction is emitted; the consumer reads the source directly.
// Deferral is safe because assignments are statements (nothing mutates
// a variable mid-expression), and a call cannot mutate one either: a
// function sees only its parameters and its locals (sema's resolver
// holds it to that) and builtins never touch slots. The resolver also
// guarantees that every local is read after its declaration, so no
// access needs a run-time check. Deferred env/st operands are
// materialized at and/or left legs only, so both control paths agree on
// the abstract stack at the merge point.
type ROp uint8

const (
	RNop ROp = iota

	RMove // regs-or-slot[Dst] = opnd A
	RZero // dst = fresh zero of Type(A)

	// The init chunk's bound-external select: env slot Dst = the
	// deployment's binding in regs[A], or env[B] (what the variable's
	// initialiser built) when there is none.
	RBindExternal

	// Control flow. Opcodes 4 to 14 are retired; the ones below keep
	// their numbers.
	RJump      ROp = iota + 11 // pc = A
	RJF                        // if not truthy(opnd A): pc = B
	RLoopInit                  // regs[A] = 0 (hidden while counter)
	RLoopCheck                 // iteration-cap check + increment of regs[A]
	RTransit                   // halt chunk, request transition to state A (-1 unknown)
	RReturn                    // halt chunk; opnd A is the value, -1 returns nil

	// Operators: dst = op(opnd A) / opnd A op opnd B.
	RNot
	RNeg
	RAdd
	RSub
	RMul
	RDiv
	RLt
	RLe
	RGt
	RGe
	REq
	RNe
	RTruthy // or-rhs merge: regs[Dst] = Truthy(opnd A)
	RAndL   // and-lhs: filter → regs[Dst]=lhs; false → regs[Dst]=false, pc=B; true → regs[Dst]=mark
	RAndR   // and-rhs: combine opnd A with the RAndL result in regs[Dst]
	ROrL    // or-lhs: truthy → regs[Dst]=true, pc=B; else fall through (Dst unwritten)

	// Composite values and calls.
	RField      // dst = (opnd A).Names[B]; C is the inline-cache site
	RFilterAtom // dst = single-field filter Names[B] from opnd A
	RFilterAny  // dst = the port-ANY filter
	RStructLit  // dst = struct per Structs[A]; fields in regs[B:B+len(Fields)]
	RListLit    // dst = list of regs[A:A+B]
	RCallB      // dst = builtin Names[A] with args regs[B:B+C]
	RCallB2     // dst = builtin Names[A] with args opnd B, opnd C (-1 = absent)
	RCallFn     // dst = function Funcs[A] with args regs[B:B+C]

	// Statements.
	RStep        // account one action
	RSend        // send per Sends[A]; value opnd B, dst opnd C (-1 = none)
	RSetIval     // retune trigger Names[A]'s interval to opnd B
	RSetTrigger  // whole-trigger reassignment of Names[A] to opnd B
	RFieldAssign // struct-field assignment per FieldAssigns[A] of opnd B
	RErr         // fail with the pre-formatted message Errs[A]

	// Fused compare-and-branch: jump to C when `opnd A cmp opnd B` is
	// false; comparison errors raise exactly as the unfused form.
	RJLt
	RJLe
	RJGt
	RJGe
	RJEq
	RJNe

	// Specialized hot natives and superinstructions. Each keeps the
	// generic form's operand layout (A = builtin-name index) so a case
	// its inline fast path does not cover, every error among them, goes
	// to the builtin itself with identical behaviour and error strings.
	RListLen // dst = list_len(opnd B); A = name index
	RListGet // dst = list_get(opnd B, opnd C); A = name index
	RMulAdd  // dst = opnd A * opnd B + opnd C (fused mul feeding an add)

	// Map forms that allocate only what outlives the run. Same layout as
	// the RCallB2 they replace (A = builtin-name index, -1 = absent).
	RMapReset  // private map slot Dst = map_new(): emptied in place if it holds a map; A = map_new's name index
	RMapGetNew // dst = map_get(opnd B, opnd C, map_new()), the default built only on a miss; A = map_get's name index
)

// Operand encoding: the top nibble-bits select the source class, the
// low 28 bits the index. -1 is the "no operand" sentinel (checked
// before decoding).
const (
	ROpndShift = 28
	ROpndMask  = int32(1)<<ROpndShift - 1

	RClassReg = 0 // plain register
	RClassLit = 1 // literal pool
	RClassEnv = 2 // machine env slot
	RClassSt  = 3 // current-state slot
)

// RLitOpnd encodes literal-pool index i as an operand.
func RLitOpnd(i int32) int32 { return RClassLit<<ROpndShift | i }

// REnvOpnd encodes env slot i as an operand.
func REnvOpnd(i int32) int32 { return RClassEnv<<ROpndShift | i }

// RStOpnd encodes current-state slot i as an operand.
func RStOpnd(i int32) int32 { return RClassSt<<ROpndShift | i }

// RInstr is one register-VM instruction. Dst is an operand-encoded
// destination (register, env slot, or state slot — the emitter
// retargets single-producer temporaries straight into their store
// destination); A/B/C are operands or pool indices per opcode.
type RInstr struct {
	Op      ROp
	Step    uint8 // actions to account before this instruction runs
	Dst     int32
	A, B, C int32
	Line    int32
}

// RegChunk is one compiled handler or function body.
type RegChunk struct {
	Code      []RInstr
	NumRegs   int32 // locals + expression temporaries
	NumLocals int32
	HasBind   bool
}

// NumRegInstrs is the total register-instruction count across chunks.
func (p *Lowered) NumRegInstrs() int {
	n := 0
	for i := range p.RegChunks {
		n += len(p.RegChunks[i].Code)
	}
	return n
}

// MaxRegs is the widest register frame any chunk needs.
func (p *Lowered) MaxRegs() int32 {
	var m int32
	for i := range p.RegChunks {
		if p.RegChunks[i].NumRegs > m {
			m = p.RegChunks[i].NumRegs
		}
	}
	return m
}

// label is a forward jump target: the jumps waiting for its pc, and the
// abstract stack they left (all of them the same: labels sit at
// statement ends, where it is empty, or at an and/or merge, below which
// nothing moves). Only live jumps register; a label none reached
// revives nothing.
type label struct {
	refs []labelRef
	astk []int32
}

type labelRef struct {
	at    int32
	field uint8 // 'A', 'B', or 'C': where the instruction keeps its target
}

// emitter is the code-generation state of one chunk.
type emitter struct {
	numLocals int32
	code      []RInstr
	astk      []int32 // operand encodings, bottom to top
	maxDepth  int
	lastProd  int // index of the last produce()d instruction, or -1

	// dead is set after an instruction control never falls out of
	// (return, transit, jump, the error forms) until a label with a live
	// jump is bound. Dead code emits nothing and leaves the abstract
	// stack alone, but the walk goes on through it: the names, literals,
	// error strings and send/struct/field-assign sites it mentions are
	// interned and its loops keep their counter slots, as the
	// interpreter-visible pools and frame sizes do not depend on
	// reachability.
	dead bool

	// stepPend is an action account waiting to ride on the next emitted
	// instruction's Step field. A statement's step is due before its
	// first instruction, so charging it in the dispatch preamble of that
	// instruction is observably identical (including on error paths) and
	// saves a full dispatch per statement.
	stepPend uint8
}

// step opens a statement: one action is due before its first
// instruction.
func (e *emitter) step() {
	if e.dead {
		return
	}
	if e.stepPend > 0 {
		// The previous statement lowered to nothing (all its operands
		// deferred); park its step on a nop so no instruction ever
		// carries two statements' accounts.
		e.emit(RNop, 0, 0, 0, 0, 0)
	}
	e.stepPend = 1
}

func (e *emitter) emit(op ROp, dst, a, b, c, line int32) int32 {
	if e.dead {
		return -1
	}
	e.code = append(e.code, RInstr{Op: op, Step: e.stepPend, Dst: dst, A: a, B: b, C: c, Line: line})
	e.stepPend = 0
	return int32(len(e.code) - 1)
}

// terminate emits an instruction control never falls out of.
func (e *emitter) terminate(op ROp, a, line int32) {
	e.emit(op, 0, a, 0, 0, line)
	e.dead = true
}

func (e *emitter) push(opnd int32) {
	if e.dead {
		return
	}
	e.astk = append(e.astk, opnd)
	if len(e.astk) > e.maxDepth {
		e.maxDepth = len(e.astk)
	}
}

func (e *emitter) pop() int32 {
	if e.dead {
		return -1
	}
	v := e.astk[len(e.astk)-1]
	e.astk = e.astk[:len(e.astk)-1]
	return v
}

// temp is the canonical temporary for the current stack depth.
func (e *emitter) temp() int32 { return e.numLocals + int32(len(e.astk)) }

// produce emits an instruction whose destination is the canonical
// temporary for the current stack depth and pushes that temporary. The
// instruction is recorded as retarget-eligible: a store that
// immediately consumes it redirects Dst instead of emitting a move.
func (e *emitter) produce(op ROp, a, b, c, line int32) {
	if e.dead {
		return
	}
	d := e.temp()
	e.emit(op, d, a, b, c, line)
	e.lastProd = len(e.code) - 1
	e.push(d)
}

// justProduced returns the instruction produce emitted last, if nothing
// was emitted and no label bound since.
func (e *emitter) justProduced() *RInstr {
	if e.dead || e.lastProd < 0 || e.lastProd != len(e.code)-1 {
		return nil
	}
	return &e.code[e.lastProd]
}

// store writes operand v to the operand-encoded destination dst. When v
// is the canonical temporary the immediately preceding instruction
// produced, that instruction is retargeted in place.
func (e *emitter) store(dst, v, line int32) {
	if in := e.justProduced(); in != nil && in.Dst == v && v>>ROpndShift == RClassReg && v >= e.numLocals {
		in.Dst = dst
		e.lastProd = -1
		return
	}
	e.emit(RMove, dst, v, 0, 0, line)
}

// fuseMulAdd folds a just-produced `mul` into the `add` consuming it as
// its left operand l: the product never round-trips through a register,
// saving a dispatch on the EWMA-style seed hot path. A product on the
// right stays a mul and an add, so an add that fails names its operands
// in source order.
func (e *emitter) fuseMulAdd(l, r int32) bool {
	in := e.justProduced()
	if in == nil || in.Op != RMul || in.Dst != l {
		return false
	}
	d := e.temp()
	in.Op, in.C, in.Dst = RMulAdd, r, d
	e.push(d)
	return true
}

// materializeEnvSt copies every deferred env/st operand on the abstract
// stack into its canonical temporary. Called at and/or left legs: both
// control paths must agree on the stack at the merge.
func (e *emitter) materializeEnvSt(line int32) {
	if e.dead {
		return
	}
	for i, o := range e.astk {
		if cls := o >> ROpndShift; cls == RClassEnv || cls == RClassSt {
			d := e.numLocals + int32(i)
			e.emit(RMove, d, o, 0, 0, line)
			e.astk[i] = d
		}
	}
}

// popWindow materializes the top n operands into their canonical
// temporaries so a call or literal can consume a contiguous register
// run, pops them, and returns the first register of the run.
func (e *emitter) popWindow(n int, line int32) int32 {
	if e.dead {
		return -1
	}
	base := len(e.astk) - n
	for i := base; i < len(e.astk); i++ {
		if d := e.numLocals + int32(i); e.astk[i] != d {
			e.emit(RMove, d, e.astk[i], 0, 0, line)
		}
	}
	e.astk = e.astk[:base]
	return e.numLocals + int32(base)
}

// jumpTo registers the jump just emitted at pc `at` with its label.
func (e *emitter) jumpTo(lb *label, at int32, field uint8) {
	if e.dead {
		return
	}
	lb.refs = append(lb.refs, labelRef{at, field})
	lb.astk = append(lb.astk[:0], e.astk...)
}

// jump emits an unconditional forward jump.
func (e *emitter) jump(lb *label, line int32) {
	e.jumpTo(lb, e.emit(RJump, 0, 0, 0, 0, line), 'A')
	e.dead = true
}

// bind places lb at the current pc. A step still pending here belongs
// to a statement the joining paths did not run, so it is parked on a
// nop before the label: only fall-through pays it.
func (e *emitter) bind(lb *label) {
	if len(lb.refs) == 0 {
		return
	}
	if e.dead {
		e.astk = append(e.astk[:0], lb.astk...)
		e.dead = false
	} else {
		if e.stepPend > 0 {
			e.emit(RNop, 0, 0, 0, 0, 0)
		}
		if len(lb.astk) != len(e.astk) {
			panic(fmt.Sprintf("merge at pc %d: stack depth %d vs %d", len(e.code), len(lb.astk), len(e.astk)))
		}
	}
	pc := int32(len(e.code))
	for _, ref := range lb.refs {
		in := &e.code[ref.at]
		switch ref.field {
		case 'A':
			in.A = pc
		case 'B':
			in.B = pc
		case 'C':
			in.C = pc
		}
	}
	e.lastProd = -1 // a second path reaches here; never retarget across it
}

// finish closes the chunk; its end is a join too (every return and
// transit lands there), so a pending step gets its nop.
func (e *emitter) finish(hasBind bool) RegChunk {
	if e.stepPend > 0 {
		e.emit(RNop, 0, 0, 0, 0, 0)
	}
	return RegChunk{
		Code:      e.code,
		NumRegs:   e.numLocals + int32(e.maxDepth),
		NumLocals: e.numLocals,
		HasBind:   hasBind,
	}
}
