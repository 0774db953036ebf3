package almanac

import "fmt"

// Register lowering: translates each stack-IR chunk produced by Lower
// into 3-address register code over a per-chunk virtual register file —
// the form internal/core's VM executes. Its semantics are the
// interpreter's (the parity storms in internal/core and internal/tasks
// pin this); relative to the IR it cuts dispatch count and operand
// traffic on the seed hot path.
//
// Register file layout for a chunk: registers [0, NumLocals) are the
// chunk's locals (same slot numbering as the stack chunk, including
// hidden loop counters); registers [NumLocals, NumRegs) are expression
// temporaries. The canonical temporary for abstract-stack depth i is
// register NumLocals+i, so the translator can window contiguous
// argument runs for calls and literals without extra moves.
//
// Operands are class-tagged int32s (see ROpnd*): a plain register, a
// literal-pool index, a machine-env slot, or a current-state slot.
// Loads of literals, env slots, state slots, and provably-defined
// locals are *deferred* — no instruction is emitted; the consumer reads
// the source directly. Deferral is safe because assignments are
// statements (nothing mutates a local mid-expression), with one
// exception: auxiliary function calls can write env and state slots, so
// any deferred env/st operands are materialized into temporaries before
// RCallFn (builtins cannot touch slots and need no such barrier). The
// same materialization runs at and/or left legs so both control paths
// agree on the abstract stack at the merge point.
//
// Locals that sema cannot prove defined (conditional declarations)
// retain the IR's runtime-undefined semantics via the RLoadL*/
// RStoreL* forms, which check the register's undefined marker and fall
// back exactly like their stack counterparts. A forward definedness
// dataflow over the stack code decides, per access, whether the
// fallback check is needed at all.
type ROp uint8

const (
	RNop ROp = iota

	RMove // regs-or-slot[Dst] = opnd A
	RZero // dst = fresh zero of Type(A)

	// Undefined-checked local access, mirroring the IR's
	// OpLoadLoc*/OpStoreLoc* fallback chain. A is the local register;
	// B is the fallback env slot, state slot, or Names index.
	RLoadLE   // dst = regs[A] if defined else env[B]
	RLoadLS   // dst = regs[A] if defined else stateVars[cur][B]
	RLoadLD   // dst = regs[A] if defined else dynamic lookup Names[B]
	RLoadLErr // dst = regs[A] if defined else undeclared-variable error Names[B]
	RStoreLE  // if regs[A] defined regs[A] = opnd C else env[B] = opnd C
	RStoreLS  // if regs[A] defined regs[A] = opnd C else stateVars[cur][B] = opnd C
	RStoreLD  // if regs[A] defined regs[A] = opnd C else dynamic assign Names[B]
	RStoreLErr
	RLoadDyn  // dst = dynamic lookup Names[A] (function chunks)
	RStoreDyn // dynamic assign Names[A] = opnd B
	RLoadErr  // undeclared-variable error Names[A]
	RStoreErr // undeclared-assign error Names[A]

	// Control flow.
	RJump      // pc = A
	RJF        // if not truthy(opnd A): pc = B
	RLoopInit  // regs[A] = 0 (hidden while counter)
	RLoopCheck // iteration-cap check + increment of regs[A]
	RTransit   // halt chunk, request transition to state A (-1 unknown)
	RReturn    // halt chunk; opnd A is the value, -1 returns nil

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
	// generic form's operand layout (A = builtin-name index for the
	// bridge path) so a failed fast path falls back to the shared boxed
	// builtin with identical behaviour and error strings.
	RListLen // dst = list_len(opnd B); A = name index
	RListGet // dst = list_get(opnd B, opnd C); A = name index
	RMulAdd  // dst = opnd A * opnd B + opnd C (fused mul feeding an add)
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
// destination (register, env slot, or state slot — the translator
// retargets single-producer temporaries straight into their store
// destination); A/B/C are operands or pool indices per opcode.
type RInstr struct {
	Op      ROp
	Step    uint8 // actions to account before this instruction runs
	Dst     int32
	A, B, C int32
	Line    int32
}

// RegChunk is the register form of one LoweredChunk.
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

// lowerRegisters translates every stack chunk; any failure fails Lower
// as a whole.
func lowerRegisters(p *Lowered) error {
	entries := make([]int32, len(p.Chunks))
	for i := range p.Chunks {
		if p.Chunks[i].HasBind {
			entries[i] = 1
		}
	}
	for _, f := range p.Funcs {
		if f.Chunk >= 0 {
			entries[f.Chunk] = f.NumParams
		}
	}
	p.RegChunks = make([]RegChunk, len(p.Chunks))
	for i := range p.Chunks {
		rc, err := translateChunk(p, &p.Chunks[i], entries[i])
		if err != nil {
			return fmt.Errorf("almanac: lower %s: register chunk %d: %w", p.Machine, i, err)
		}
		p.RegChunks[i] = rc
	}
	return nil
}

// definedSets runs a forward must-be-defined dataflow over a stack
// chunk: IN[pc] is a bitset of local slots that are defined on every
// path reaching pc. entry slots (the event binding or the function
// parameters) are defined on entry; OpStoreLocal and OpLoopInit define
// their slot; the conditional OpStoreLoc* forms do not (they only write
// the local when it is already defined). Unreached pcs stay nil.
func definedSets(code []Instr, numLocals, entry int32) [][]uint64 {
	n := len(code)
	sets := make([][]uint64, n+1)
	if n == 0 {
		return sets
	}
	words := (int(numLocals) + 63) / 64
	if words == 0 {
		words = 1
	}
	ein := make([]uint64, words)
	for i := int32(0); i < entry; i++ {
		ein[i/64] |= 1 << uint(i%64)
	}
	sets[0] = ein
	work := []int{0}
	out := make([]uint64, words)
	var succ [2]int
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := code[pc]
		copy(out, sets[pc])
		switch in.Op {
		case OpStoreLocal, OpLoopInit:
			out[in.A/64] |= 1 << uint(in.A%64)
		}
		ns := succ[:0]
		switch in.Op {
		case OpJump:
			ns = append(ns, int(in.A))
		case OpJumpIfFalse, OpJLt, OpJLe, OpJGt, OpJGe, OpJEq, OpJNe, OpAndL, OpOrL:
			ns = append(ns, pc+1, int(in.A))
		case OpTransit, OpReturn, OpErr, OpLoadErr, OpStoreErr:
			// no successors
		default:
			ns = append(ns, pc+1)
		}
		for _, s := range ns {
			if sets[s] == nil {
				sets[s] = append([]uint64(nil), out...)
				if s < n {
					work = append(work, s)
				}
				continue
			}
			changed := false
			for w := range out {
				if old := sets[s][w]; old&out[w] != old {
					sets[s][w] &= out[w]
					changed = true
				}
			}
			if changed && s < n {
				work = append(work, s)
			}
		}
	}
	return sets
}

type regPatch struct {
	at    int32
	field uint8 // 'A', 'B', or 'C'
}

type regTranslator struct {
	p         *Lowered
	src       []Instr
	numLocals int32
	defined   [][]uint64

	code     []RInstr
	astk     []int32 // operand encodings, bottom to top
	maxDepth int
	lastProd int // index of the last produce()d instruction, or -1

	regPCAt []int32           // stack pc → register pc, for jump patching
	patches []regPatch        // register jumps carrying stack targets
	pending map[int32][]int32 // live jump target → abstract stack snapshot
	dead    bool

	// stepPend is an action account waiting to ride on the next emitted
	// instruction's Step field. OpStep runs before its statement's first
	// instruction, so charging the step in the dispatch preamble of that
	// instruction is observably identical (including on error paths) and
	// saves a full dispatch per statement.
	stepPend uint8
}

func translateChunk(p *Lowered, ch *LoweredChunk, entry int32) (rc RegChunk, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	t := &regTranslator{
		p:         p,
		src:       ch.Code,
		numLocals: ch.NumLocals,
		defined:   definedSets(ch.Code, ch.NumLocals, entry),
		lastProd:  -1,
		regPCAt:   make([]int32, len(ch.Code)+1),
		pending:   map[int32][]int32{},
	}
	t.run()
	for _, pt := range t.patches {
		in := &t.code[pt.at]
		switch pt.field {
		case 'A':
			in.A = t.regPCAt[in.A]
		case 'B':
			in.B = t.regPCAt[in.B]
		case 'C':
			in.C = t.regPCAt[in.C]
		}
	}
	return RegChunk{
		Code:      t.code,
		NumRegs:   t.numLocals + int32(t.maxDepth),
		NumLocals: t.numLocals,
		HasBind:   ch.HasBind,
	}, nil
}

func (t *regTranslator) push(opnd int32) {
	t.astk = append(t.astk, opnd)
	if len(t.astk) > t.maxDepth {
		t.maxDepth = len(t.astk)
	}
}

func (t *regTranslator) pop() int32 {
	v := t.astk[len(t.astk)-1]
	t.astk = t.astk[:len(t.astk)-1]
	return v
}

func (t *regTranslator) emit(op ROp, dst, a, b, c, line int32) int32 {
	t.code = append(t.code, RInstr{Op: op, Step: t.stepPend, Dst: dst, A: a, B: b, C: c, Line: line})
	t.stepPend = 0
	return int32(len(t.code) - 1)
}

// produce emits an instruction whose destination is the canonical
// temporary for the current stack depth and pushes that temporary. The
// instruction is recorded as retarget-eligible: a store that
// immediately consumes it redirects Dst instead of emitting a move.
func (t *regTranslator) produce(op ROp, a, b, c, line int32) {
	d := t.numLocals + int32(len(t.astk))
	t.emit(op, d, a, b, c, line)
	t.lastProd = len(t.code) - 1
	t.push(d)
}

// store writes operand v to the operand-encoded destination dst. When v
// is the canonical temporary the immediately preceding instruction
// produced, that instruction is retargeted in place.
func (t *regTranslator) store(dst, v, line int32) {
	if t.lastProd >= 0 && t.lastProd == len(t.code)-1 {
		if in := &t.code[t.lastProd]; in.Dst == v && v>>ROpndShift == RClassReg && v >= t.numLocals {
			in.Dst = dst
			t.lastProd = -1
			return
		}
	}
	t.emit(RMove, dst, v, 0, 0, line)
}

// materializeEnvSt copies every deferred env/st operand on the abstract
// stack into its canonical temporary. Called before RCallFn (the callee
// may write those slots) and at and/or left legs (both control paths
// must agree on the stack at the merge).
func (t *regTranslator) materializeEnvSt(line int32) {
	for i, o := range t.astk {
		if cls := o >> ROpndShift; cls == RClassEnv || cls == RClassSt {
			d := t.numLocals + int32(i)
			t.emit(RMove, d, o, 0, 0, line)
			t.astk[i] = d
		}
	}
}

// window materializes astk[base:] into the canonical temporaries so a
// call or literal can consume a contiguous register run; returns the
// first register of the run.
func (t *regTranslator) window(base int, line int32) int32 {
	for i := base; i < len(t.astk); i++ {
		d := t.numLocals + int32(i)
		if t.astk[i] != d {
			t.emit(RMove, d, t.astk[i], 0, 0, line)
			t.astk[i] = d
		}
	}
	return t.numLocals + int32(base)
}

func (t *regTranslator) isDefined(pc int, slot int32) bool {
	set := t.defined[pc]
	if set == nil {
		return true // unreachable; never executed
	}
	return set[slot/64]&(1<<uint(slot%64)) != 0
}

// jumpTo records a live jump from register instruction at (field f)
// to stack pc target, snapshotting the abstract stack for the merge.
func (t *regTranslator) jumpTo(at int32, f uint8, target int32) {
	t.patches = append(t.patches, regPatch{at: at, field: f})
	t.pending[target] = append([]int32(nil), t.astk...)
}

var regBin = map[Op]ROp{
	OpNot: RNot, OpNeg: RNeg,
	OpAdd: RAdd, OpSub: RSub, OpMul: RMul, OpDiv: RDiv,
	OpLt: RLt, OpLe: RLe, OpGt: RGt, OpGe: RGe, OpEq: REq, OpNe: RNe,
}

var regFused = map[Op]ROp{
	OpJLt: RJLt, OpJLe: RJLe, OpJGt: RJGt, OpJGe: RJGe, OpJEq: RJEq, OpJNe: RJNe,
}

func (t *regTranslator) run() {
	for pc := 0; pc <= len(t.src); pc++ {
		if t.stepPend > 0 && !t.dead {
			// A pending step must not leak past a jump target (or the
			// chunk end): a path joining here did not run the statement
			// the step belongs to. Flush it onto a nop placed *before*
			// the target pc so only fall-through pays it.
			if _, tgt := t.pending[int32(pc)]; tgt || pc == len(t.src) {
				t.emit(RNop, 0, 0, 0, 0, 0)
			}
		}
		t.regPCAt[pc] = int32(len(t.code))
		if snap, ok := t.pending[int32(pc)]; ok {
			if t.dead {
				t.astk = append(t.astk[:0], snap...)
				t.dead = false
			} else if len(snap) != len(t.astk) {
				panic(fmt.Sprintf("merge at pc %d: stack depth %d vs %d", pc, len(snap), len(t.astk)))
			}
			t.lastProd = -1 // a second path reaches here; never retarget across it
		}
		if pc == len(t.src) {
			break
		}
		if t.dead {
			continue
		}
		in := t.src[pc]
		line := in.Line
		switch in.Op {
		case OpNop:
			// drop
		case OpConst:
			t.push(RLitOpnd(in.A))
		case OpZero:
			t.produce(RZero, in.A, 0, 0, line)
		case OpLoadEnv:
			t.push(REnvOpnd(in.A))
		case OpStoreEnv:
			t.store(REnvOpnd(in.A), t.pop(), line)
		case OpLoadSt:
			t.push(RStOpnd(in.A))
		case OpStoreSt:
			t.store(RStOpnd(in.A), t.pop(), line)
		case OpLoadLocEnv, OpLoadLocSt, OpLoadLocDyn, OpLoadLocErr:
			if t.isDefined(pc, in.A) {
				t.push(in.A) // plain register, read directly
				break
			}
			var op ROp
			switch in.Op {
			case OpLoadLocEnv:
				op = RLoadLE
			case OpLoadLocSt:
				op = RLoadLS
			case OpLoadLocDyn:
				op = RLoadLD
			default:
				op = RLoadLErr
			}
			t.produce(op, in.A, in.B, 0, line)
		case OpStoreLocal:
			t.store(in.A, t.pop(), line)
		case OpStoreLocEnv, OpStoreLocSt, OpStoreLocDyn, OpStoreLocErr:
			if t.isDefined(pc, in.A) {
				t.store(in.A, t.pop(), line)
				break
			}
			var op ROp
			switch in.Op {
			case OpStoreLocEnv:
				op = RStoreLE
			case OpStoreLocSt:
				op = RStoreLS
			case OpStoreLocDyn:
				op = RStoreLD
			default:
				op = RStoreLErr
			}
			t.emit(op, 0, in.A, in.B, t.pop(), line)
		case OpLoadDyn:
			t.produce(RLoadDyn, in.A, 0, 0, line)
		case OpStoreDyn:
			t.emit(RStoreDyn, 0, in.A, t.pop(), 0, line)
		case OpLoadErr:
			t.emit(RLoadErr, 0, in.A, 0, 0, line)
			t.dead = true
		case OpStoreErr:
			t.pop()
			t.emit(RStoreErr, 0, in.A, 0, 0, line)
			t.dead = true
		case OpJump:
			at := t.emit(RJump, 0, in.A, 0, 0, line)
			t.jumpTo(at, 'A', in.A)
			t.dead = true
		case OpJumpIfFalse:
			v := t.pop()
			at := t.emit(RJF, 0, v, in.A, 0, line)
			t.jumpTo(at, 'B', in.A)
		case OpJLt, OpJLe, OpJGt, OpJGe, OpJEq, OpJNe:
			r := t.pop()
			l := t.pop()
			at := t.emit(regFused[in.Op], 0, l, r, in.A, line)
			t.jumpTo(at, 'C', in.A)
		case OpLoopInit:
			t.emit(RLoopInit, 0, in.A, 0, 0, line)
		case OpLoopCheck:
			t.emit(RLoopCheck, 0, in.A, 0, 0, line)
		case OpTransit:
			t.emit(RTransit, 0, in.A, 0, 0, line)
			t.dead = true
		case OpReturn:
			v := int32(-1)
			if in.A == 1 {
				v = t.pop()
			}
			t.emit(RReturn, 0, v, 0, 0, line)
			t.dead = true
		case OpNot, OpNeg:
			t.produce(regBin[in.Op], t.pop(), 0, 0, line)
		case OpAdd, OpSub, OpMul, OpDiv, OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
			r := t.pop()
			l := t.pop()
			if in.Op == OpAdd && t.lastProd >= 0 && t.lastProd == len(t.code)-1 {
				// Fuse `mul` straight into a consuming `add`: the
				// product never round-trips through a register, saving
				// a dispatch on the EWMA-style seed hot path.
				if li := &t.code[t.lastProd]; li.Op == RMul && (li.Dst == l || li.Dst == r) {
					other := l
					if li.Dst == l {
						other = r
					}
					d := t.numLocals + int32(len(t.astk))
					li.Op, li.C, li.Dst = RMulAdd, other, d
					t.push(d)
					break
				}
			}
			t.produce(regBin[in.Op], l, r, 0, line)
		case OpTruthy:
			// Only emitted as the or-rhs terminator: fold the rhs into
			// the ROrL destination so both paths merge on one register.
			rhs := t.pop()
			d := t.astk[len(t.astk)-1]
			t.emit(RTruthy, d, rhs, 0, 0, line)
			t.lastProd = -1
		case OpAndL:
			t.materializeEnvSt(line)
			l := t.pop()
			d := t.numLocals + int32(len(t.astk))
			at := t.emit(RAndL, d, l, in.A, 0, line)
			t.push(d)
			t.jumpTo(at, 'B', in.A)
			t.lastProd = -1
		case OpAndR:
			rhs := t.pop()
			d := t.astk[len(t.astk)-1]
			t.emit(RAndR, d, rhs, 0, 0, line)
			t.lastProd = -1
		case OpOrL:
			t.materializeEnvSt(line)
			l := t.pop()
			d := t.numLocals + int32(len(t.astk))
			at := t.emit(ROrL, d, l, in.A, 0, line)
			t.push(d)
			t.jumpTo(at, 'B', in.A)
			t.lastProd = -1
		case OpField:
			site := t.p.RFieldSites
			t.p.RFieldSites++
			t.produce(RField, t.pop(), in.A, site, line)
		case OpFilterAtom:
			t.produce(RFilterAtom, t.pop(), in.A, 0, line)
		case OpFilterAny:
			t.produce(RFilterAny, 0, 0, 0, line)
		case OpStructLit:
			n := len(t.p.Structs[in.A].Fields)
			w := t.window(len(t.astk)-n, line)
			t.astk = t.astk[:len(t.astk)-n]
			t.produce(RStructLit, in.A, w, 0, line)
		case OpListLit:
			n := int(in.A)
			w := t.window(len(t.astk)-n, line)
			t.astk = t.astk[:len(t.astk)-n]
			t.produce(RListLit, w, in.A, 0, line)
		case OpCallB:
			if name := t.p.Names[in.A]; name == "list_len" && in.B == 1 {
				t.produce(RListLen, in.A, t.pop(), -1, line)
				break
			} else if name == "list_get" && in.B == 2 {
				a2 := t.pop()
				a1 := t.pop()
				t.produce(RListGet, in.A, a1, a2, line)
				break
			}
			if in.B <= 2 {
				a1, a2 := int32(-1), int32(-1)
				if in.B == 2 {
					a2 = t.pop()
				}
				if in.B >= 1 {
					a1 = t.pop()
				}
				t.produce(RCallB2, in.A, a1, a2, line)
				break
			}
			w := t.window(len(t.astk)-int(in.B), line)
			t.astk = t.astk[:len(t.astk)-int(in.B)]
			t.produce(RCallB, in.A, w, in.B, line)
		case OpCallFn:
			t.materializeEnvSt(line)
			w := t.window(len(t.astk)-int(in.B), line)
			t.astk = t.astk[:len(t.astk)-int(in.B)]
			t.produce(RCallFn, in.A, w, in.B, line)
		case OpStep:
			if t.stepPend > 0 {
				// The previous statement lowered to nothing (all its
				// operands deferred); park its step on a nop so no
				// instruction ever carries two statements' accounts.
				t.emit(RNop, 0, 0, 0, 0, line)
			}
			t.stepPend = 1
		case OpPop:
			t.pop() // deferred operands are effect-free; eager ones already ran
		case OpSend:
			dst := int32(-1)
			if t.p.Sends[in.A].HasDst {
				dst = t.pop()
			}
			v := t.pop()
			t.emit(RSend, 0, in.A, v, dst, line)
		case OpSetIval:
			t.emit(RSetIval, 0, in.A, t.pop(), 0, line)
		case OpSetTrigger:
			t.emit(RSetTrigger, 0, in.A, t.pop(), 0, line)
		case OpFieldAssign:
			t.emit(RFieldAssign, 0, in.A, t.pop(), 0, line)
		case OpErr:
			t.emit(RErr, 0, in.A, 0, 0, line)
			t.dead = true
		default:
			panic(fmt.Sprintf("unhandled stack opcode %d", in.Op))
		}
	}
}
