package almanac

import "fmt"

// Lowering back end: compiles a post-sema CompiledMachine into a flat
// program — slot-indexed variable frames (machine vars, per-state
// persistent vars, per-handler locals), a dense state × trigger
// dispatch table, and stack bytecode for every event handler and
// auxiliary function. The stack bytecode is the IR: nothing executes
// it, rlower.go translates each chunk into the register code that
// internal/core's VM runs allocation-free in steady state. The AST
// interpreter remains the semantic reference, and the lowered program
// must be behaviourally indistinguishable from it (states, emissions,
// snapshots, and error strings — the property tests in internal/core
// pin this).
//
// Design notes for exact interpreter parity:
//
//   - The interpreter resolves names dynamically through a flat
//     locals map → current state's vars → machine env chain, and a
//     DeclStmt adds its name when (and only if) it executes. Lowering
//     therefore pre-allocates a local slot for every name declared
//     anywhere in a handler body, marks slots "undefined" at entry,
//     and every local access carries the statically-resolved fallback
//     (state slot, env slot, dynamic lookup, or undeclared-variable
//     error) taken when the slot is still undefined — which reproduces
//     conditional declarations and shadowing byte-for-byte.
//   - Auxiliary functions run with the caller's *current* state
//     unknown at compile time, so non-local names inside them resolve
//     dynamically at runtime (OpLoadDyn/OpStoreDyn), exactly like the
//     interpreter's scope chain.
//   - Errors the interpreter raises lazily (unknown function, arity
//     mismatch, ANY on a non-port field, undeclared names) lower to
//     error opcodes in place, never to Lower failures: anything sema
//     accepts must lower, because the interpreter accepts it too.

// Op is a stack-IR opcode. Operands A/B index the Lowered pools named in the
// comments; Line carries the source line for error messages.
type Op uint8

const (
	OpNop Op = iota

	// Values.
	OpConst // push Lits[A]
	OpZero  // push a fresh zero value of Type(A)

	// Variable access. "Loc" ops read/write local slot A and fall back
	// (when the slot is still undefined) to env slot B, state slot B of
	// the current state, a dynamic name lookup of Names[B], or an
	// undeclared-variable error naming Names[B].
	OpLoadEnv     // push env[A]
	OpStoreEnv    // env[A] = pop
	OpLoadSt      // push stateVars[currentState][A]
	OpStoreSt     // stateVars[currentState][A] = pop
	OpLoadLocEnv  // push locals[A], else env[B]
	OpLoadLocSt   // push locals[A], else stateVars[cur][B]
	OpLoadLocDyn  // push locals[A], else dynamic lookup Names[B]
	OpLoadLocErr  // push locals[A], else undeclared-variable error Names[B]
	OpStoreLocal  // declare: locals[A] = pop (always defines)
	OpStoreLocEnv // locals[A] = pop if defined, else env[B] = pop
	OpStoreLocSt  // locals[A] = pop if defined, else stateVars[cur][B] = pop
	OpStoreLocDyn // locals[A] = pop if defined, else dynamic assign Names[B]
	OpStoreLocErr // locals[A] = pop if defined, else undeclared-assign error Names[B]
	OpLoadDyn     // dynamic lookup Names[A] (function chunks)
	OpStoreDyn    // dynamic assign Names[A] (function chunks)
	OpLoadErr     // undeclared-variable error Names[A]
	OpStoreErr    // undeclared-assign error Names[A]

	// Control flow.
	OpJump        // pc = A
	OpJumpIfFalse // pop; if not truthy, pc = A (Truthy errors propagate)
	OpLoopInit    // locals[A] = 0 (hidden while-loop counter)
	OpLoopCheck   // if locals[A] >= maxWhileIterations error; locals[A]++
	OpTransit     // halt chunk, request transition to state A (-1 unknown)
	OpReturn      // halt chunk; A=1 pops the return value, A=0 returns nil

	// Operators.
	OpNot
	OpNeg
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpTruthy // pop; push Truthy(value) as bool
	OpAndL   // and-lhs: filter → fall through; false → push false, jump A; true → push marker
	OpAndR   // and-rhs: combine with the OpAndL marker (filter merge or Truthy)
	OpOrL    // or-lhs: truthy → push true, jump A; else fall through

	// Composite values and calls.
	OpField      // pop x; push x.Names[A]
	OpFilterAtom // pop arg; push single-field filter for field Names[A]
	OpFilterAny  // push the port-ANY filter
	OpStructLit  // pop len(Structs[A].Fields) values; push the struct
	OpListLit    // pop A values; push the list
	OpCallB      // builtin Names[A] with B args (popped)
	OpCallFn     // auxiliary function Funcs[A] with B args (popped)

	// Statements.
	OpStep        // account one action (per-statement, before it runs)
	OpPop         // discard top of stack (expression statements)
	OpSend        // send per Sends[A]; pops dst (if any), then the value
	OpSetIval     // pop v; retune trigger Names[A]'s interval
	OpSetTrigger  // pop v; whole-trigger reassignment of Names[A]
	OpFieldAssign // pop v; struct-field assignment per FieldAssigns[A]
	OpErr         // fail with the pre-formatted message Errs[A]

	// Fused compare-and-branch forms, peepholed from a comparison
	// followed immediately by OpJumpIfFalse (the shape every `if` and
	// `while` condition lowers to). Pop two operands; jump to A when the
	// comparison is false. Comparison errors are raised exactly as the
	// unfused operator would raise them.
	OpJLt
	OpJLe
	OpJGt
	OpJGe
	OpJEq
	OpJNe
)

// Instr is one VM instruction.
type Instr struct {
	Op   Op
	A, B int32
	Line int32
}

// LitKind discriminates constant-pool entries.
type LitKind uint8

const (
	LitInt LitKind = iota
	LitFloat
	LitBool
	LitStr
)

// Lit is a constant-pool literal.
type Lit struct {
	Kind LitKind
	I    int64
	F    float64
	B    bool
	S    string
}

// SlotDef names one frame slot (machine env or per-state vars); the
// name is kept for snapshots and dynamic lookups.
type SlotDef struct {
	Name string
	Type Type
}

// LoweredChunk is one compiled handler or function body.
type LoweredChunk struct {
	Code      []Instr
	NumLocals int32
	HasBind   bool // local slot 0 receives the event binding
}

// RecvCase is one recv handler with its match pattern; patterns are
// tried in declaration order, first match wins.
type RecvCase struct {
	Trigger EventTrigger
	Chunk   int32
}

// LoweredState is one state's slots and dispatch tables.
type LoweredState struct {
	Name    string
	Slots   []SlotDef
	OnVar   []int32 // indexed like Lowered.TriggerNames; -1 = no handler
	Enter   int32   // chunk index or -1
	Exit    int32
	Realloc int32
	Recvs   []RecvCase
}

// LoweredFunc is one compiled auxiliary function.
type LoweredFunc struct {
	Name      string
	NumParams int32
	Chunk     int32
}

// SendSite is the static half of a send statement.
type SendSite struct {
	Harvester bool
	Machine   string
	HasDst    bool
}

// StructSite is the static half of a struct literal.
type StructSite struct {
	TypeName string
	Fields   []string
}

// FieldAssignSite is the static half of `target.field = expr` on a
// struct variable: the resolved target location plus names for errors.
type FieldAssignSite struct {
	Target string
	Field  string
	Local  int32 // local slot or -1
	St     int32 // current-state slot or -1
	Env    int32 // env slot or -1
	Dyn    bool  // function context: resolve Target by name at runtime
}

// Lowered is the flat program for one machine.
type Lowered struct {
	Machine      string
	Names        []string
	Lits         []Lit
	Errs         []string
	EnvSlots     []SlotDef
	TriggerNames []string // declared triggers first, in declaration order
	States       []LoweredState
	InitialState int32
	Chunks       []LoweredChunk
	Funcs        []LoweredFunc
	Sends        []SendSite
	Structs      []StructSite
	FieldAssigns []FieldAssignSite

	// Register form, translated from Chunks by lowerRegisters; index-
	// parallel to Chunks. RFieldSites counts RField instructions across
	// the program so executors can size their inline-cache tables.
	RegChunks   []RegChunk
	RFieldSites int32
}

// NumInstrs is the total instruction count across all chunks.
func (p *Lowered) NumInstrs() int {
	n := 0
	for i := range p.Chunks {
		n += len(p.Chunks[i].Code)
	}
	return n
}

// StateSlots is the total per-state persistent slot count.
func (p *Lowered) StateSlots() int {
	n := 0
	for i := range p.States {
		n += len(p.States[i].Slots)
	}
	return n
}

type lowerer struct {
	cm      *CompiledMachine
	p       *Lowered
	builtin map[string]bool
	funcIdx map[string]int32
	trigIdx map[string]int32
	envIdx  map[string]int32
	nameIdx map[string]int32
	litIdx  map[Lit]int32
	errIdx  map[string]int32
	err     error
}

// Lower compiles a post-sema machine into its flat program.
// builtinNames is the runtime library (core.BuiltinNames()); lowering
// needs only the name set, so internal/core keeps its one-way
// dependency on internal/almanac. Lower never panics on sema-accepted
// input: constructs the interpreter would only fault on at runtime
// lower to error opcodes, and genuinely unknown AST shapes return an
// error (the caller falls back to the interpreter).
func Lower(cm *CompiledMachine, builtinNames []string) (lp *Lowered, err error) {
	defer func() {
		if r := recover(); r != nil {
			lp, err = nil, fmt.Errorf("almanac: lower %s: internal error: %v", cm.Name, r)
		}
	}()
	l := &lowerer{
		cm:      cm,
		p:       &Lowered{Machine: cm.Name, InitialState: -1},
		builtin: make(map[string]bool, len(builtinNames)),
		funcIdx: make(map[string]int32, len(cm.Funcs)),
		trigIdx: make(map[string]int32, len(cm.Triggers)),
		envIdx:  make(map[string]int32, len(cm.Vars)),
		nameIdx: map[string]int32{},
		litIdx:  map[Lit]int32{},
		errIdx:  map[string]int32{},
	}
	for _, n := range builtinNames {
		l.builtin[n] = true
	}
	for i := range cm.Funcs {
		// First declaration wins, like the interpreter's map build
		// would resolve lookups (later duplicates are unreachable
		// there too since sema rejects them).
		if _, ok := l.funcIdx[cm.Funcs[i].Name]; !ok {
			l.funcIdx[cm.Funcs[i].Name] = int32(len(l.p.Funcs))
			l.p.Funcs = append(l.p.Funcs, LoweredFunc{
				Name:      cm.Funcs[i].Name,
				NumParams: int32(len(cm.Funcs[i].Params)),
				Chunk:     -1,
			})
		}
	}
	for i, t := range cm.Triggers {
		l.trigIdx[t.Name] = int32(i)
		l.p.TriggerNames = append(l.p.TriggerNames, t.Name)
	}
	// Events may (in principle) name triggers the machine never
	// declared; give those dispatch rows too so HandleTrigger behaves
	// identically for any name.
	for si := range cm.States {
		for ei := range cm.States[si].Events {
			trg := &cm.States[si].Events[ei].Trigger
			if trg.Kind == TrigOnVar {
				if _, ok := l.trigIdx[trg.VarName]; !ok {
					l.trigIdx[trg.VarName] = int32(len(l.p.TriggerNames))
					l.p.TriggerNames = append(l.p.TriggerNames, trg.VarName)
				}
			}
		}
	}
	for i, v := range cm.Vars {
		l.envIdx[v.Name] = int32(i)
		l.p.EnvSlots = append(l.p.EnvSlots, SlotDef{Name: v.Name, Type: v.Type})
	}

	for si := range cm.States {
		st := &cm.States[si]
		ls := LoweredState{
			Name:    st.Name,
			OnVar:   make([]int32, len(l.p.TriggerNames)),
			Enter:   -1,
			Exit:    -1,
			Realloc: -1,
		}
		for i := range ls.OnVar {
			ls.OnVar[i] = -1
		}
		slots := make(map[string]int32, len(st.Vars))
		for i, v := range st.Vars {
			slots[v.Name] = int32(i)
			ls.Slots = append(ls.Slots, SlotDef{Name: v.Name, Type: v.Type})
		}
		sctx := &stateCtx{idx: int32(si), slots: slots}
		for ei := range st.Events {
			ev := &st.Events[ei]
			switch ev.Trigger.Kind {
			case TrigOnVar:
				ti := l.trigIdx[ev.Trigger.VarName]
				if ls.OnVar[ti] == -1 {
					ls.OnVar[ti] = l.compileChunk(sctx, ev.Body, ev.Trigger.AsName)
				}
			case TrigOnEnter:
				if ls.Enter == -1 {
					ls.Enter = l.compileChunk(sctx, ev.Body, "")
				}
			case TrigOnExit:
				if ls.Exit == -1 {
					ls.Exit = l.compileChunk(sctx, ev.Body, "")
				}
			case TrigOnRealloc:
				if ls.Realloc == -1 {
					ls.Realloc = l.compileChunk(sctx, ev.Body, "")
				}
			case TrigOnRecv:
				ls.Recvs = append(ls.Recvs, RecvCase{
					Trigger: ev.Trigger,
					Chunk:   l.compileChunk(sctx, ev.Body, ev.Trigger.RecvVar),
				})
			}
		}
		l.p.States = append(l.p.States, ls)
		if st.Name == cm.InitialState {
			l.p.InitialState = int32(si)
		}
	}
	if l.p.InitialState < 0 && len(l.p.States) > 0 {
		l.p.InitialState = 0
	}
	for i := range cm.Funcs {
		fd := &cm.Funcs[i]
		fi, ok := l.funcIdx[fd.Name]
		if !ok || l.p.Funcs[fi].Chunk != -1 {
			continue
		}
		l.p.Funcs[fi].Chunk = l.compileFuncChunk(fd)
	}
	if l.err != nil {
		return nil, l.err
	}
	// Translate the IR to register code — the only form that executes,
	// so a register-translation failure fails Lower.
	if err := lowerRegisters(l.p); err != nil {
		return nil, err
	}
	return l.p, nil
}

func (l *lowerer) failf(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("almanac: lower %s: %s", l.cm.Name, fmt.Sprintf(format, args...))
	}
}

func (l *lowerer) name(n string) int32 {
	if i, ok := l.nameIdx[n]; ok {
		return i
	}
	i := int32(len(l.p.Names))
	l.nameIdx[n] = i
	l.p.Names = append(l.p.Names, n)
	return i
}

func (l *lowerer) lit(v Lit) int32 {
	if i, ok := l.litIdx[v]; ok {
		return i
	}
	i := int32(len(l.p.Lits))
	l.litIdx[v] = i
	l.p.Lits = append(l.p.Lits, v)
	return i
}

func (l *lowerer) errMsg(msg string) int32 {
	if i, ok := l.errIdx[msg]; ok {
		return i
	}
	i := int32(len(l.p.Errs))
	l.errIdx[msg] = i
	l.p.Errs = append(l.p.Errs, msg)
	return i
}

type stateCtx struct {
	idx   int32
	slots map[string]int32
}

type chunkCompiler struct {
	l      *lowerer
	sctx   *stateCtx // nil inside auxiliary functions
	locals map[string]int32
	nloc   int32
	code   []Instr
	bound  bool
}

func (l *lowerer) compileChunk(sctx *stateCtx, body []Stmt, bindName string) int32 {
	c := &chunkCompiler{l: l, sctx: sctx, locals: map[string]int32{}}
	if bindName != "" {
		c.locals[bindName] = 0
		c.nloc = 1
		c.bound = true
	}
	c.collectLocals(body)
	c.stmts(body)
	l.p.Chunks = append(l.p.Chunks, LoweredChunk{Code: c.code, NumLocals: c.nloc, HasBind: c.bound})
	return int32(len(l.p.Chunks) - 1)
}

func (l *lowerer) compileFuncChunk(fd *FuncDecl) int32 {
	c := &chunkCompiler{l: l, locals: map[string]int32{}}
	for i, p := range fd.Params {
		// Duplicate parameter names resolve to the last slot, matching
		// the interpreter's bind-map overwrite.
		c.locals[p.Name] = int32(i)
	}
	c.nloc = int32(len(fd.Params))
	c.collectLocals(fd.Body)
	c.stmts(fd.Body)
	l.p.Chunks = append(l.p.Chunks, LoweredChunk{Code: c.code, NumLocals: c.nloc, HasBind: len(fd.Params) > 0})
	return int32(len(l.p.Chunks) - 1)
}

// collectLocals pre-allocates a slot for every name a DeclStmt anywhere
// in the body may introduce; whether a given slot is live at a given
// instruction is a runtime question (conditional declarations), tracked
// by the VM's undefined marker.
func (c *chunkCompiler) collectLocals(body []Stmt) {
	for _, stmt := range body {
		switch st := stmt.(type) {
		case *DeclStmt:
			if _, ok := c.locals[st.Var.Name]; !ok {
				c.locals[st.Var.Name] = c.nloc
				c.nloc++
			}
		case *IfStmt:
			c.collectLocals(st.Then)
			c.collectLocals(st.Else)
		case *WhileStmt:
			c.collectLocals(st.Body)
		}
	}
}

func (c *chunkCompiler) hidden() int32 {
	s := c.nloc
	c.nloc++
	return s
}

func (c *chunkCompiler) emit(op Op, a, b int32, line int) int32 {
	c.code = append(c.code, Instr{Op: op, A: a, B: b, Line: int32(line)})
	return int32(len(c.code) - 1)
}

func (c *chunkCompiler) patch(at int32) {
	c.code[at].A = int32(len(c.code))
}

func (c *chunkCompiler) stmts(body []Stmt) {
	for _, stmt := range body {
		c.emit(OpStep, 0, 0, 0)
		switch st := stmt.(type) {
		case *AssignStmt:
			c.assign(st)
		case *DeclStmt:
			if st.Var.Init != nil {
				c.expr(st.Var.Init)
			} else {
				c.emit(OpZero, int32(st.Var.Type), 0, st.Line())
			}
			c.emit(OpStoreLocal, c.locals[st.Var.Name], 0, st.Line())
		case *TransitStmt:
			c.transit(st)
		case *ReturnStmt:
			if st.Val != nil {
				c.expr(st.Val)
				c.emit(OpReturn, 1, 0, st.Line())
			} else {
				c.emit(OpReturn, 0, 0, st.Line())
			}
		case *IfStmt:
			c.expr(st.Cond)
			jElse := c.condJump(st.Line())
			c.stmts(st.Then)
			if len(st.Else) > 0 {
				jEnd := c.emit(OpJump, 0, 0, st.Line())
				c.patch(jElse)
				c.stmts(st.Else)
				c.patch(jEnd)
			} else {
				c.patch(jElse)
			}
		case *WhileStmt:
			counter := c.hidden()
			c.emit(OpLoopInit, counter, 0, st.Line())
			head := int32(len(c.code))
			c.emit(OpLoopCheck, counter, 0, st.Line())
			c.expr(st.Cond)
			jEnd := c.condJump(st.Line())
			c.stmts(st.Body)
			c.emit(OpJump, head, 0, st.Line())
			c.patch(jEnd)
		case *SendStmt:
			c.expr(st.Val)
			site := SendSite{Harvester: st.To.Harvester, Machine: st.To.Machine}
			if st.To.Dst != nil {
				c.expr(st.To.Dst)
				site.HasDst = true
			}
			c.l.p.Sends = append(c.l.p.Sends, site)
			c.emit(OpSend, int32(len(c.l.p.Sends)-1), 0, st.Line())
		case *ExprStmt:
			c.expr(st.X)
			c.emit(OpPop, 0, 0, st.Line())
		default:
			c.l.failf("unknown statement %T", stmt)
			return
		}
	}
}

// fusedJump maps a comparison opcode to its compare-and-branch form.
var fusedJump = map[Op]Op{
	OpLt: OpJLt, OpLe: OpJLe, OpGt: OpJGt, OpGe: OpJGe, OpEq: OpJEq, OpNe: OpJNe,
}

// condJump emits the branch closing an if/while condition. When the
// condition ends in a bare comparison the pair is fused into one
// compare-and-branch instruction: the comparison's boolean never
// materializes on the stack and the branch needs no truthiness check.
// Fusing is safe because no jump can target the slot the OpJumpIfFalse
// would occupy — a trailing comparison means that position is
// mid-expression, and every forward patch in this compiler resolves to
// a position after a complete statement or and/or merge.
func (c *chunkCompiler) condJump(line int) int32 {
	if n := len(c.code); n > 0 {
		if j, ok := fusedJump[c.code[n-1].Op]; ok {
			c.code[n-1].Op = j // A patched later with the jump target
			return int32(n - 1)
		}
	}
	return c.emit(OpJumpIfFalse, 0, 0, line)
}

func (c *chunkCompiler) transit(st *TransitStmt) {
	for i := range c.l.cm.States {
		if c.l.cm.States[i].Name == st.State {
			c.emit(OpTransit, int32(i), 0, st.Line())
			return
		}
	}
	if c.sctx == nil {
		// Inside a function the interpreter rejects any transit before
		// validating its target; the call site raises that error.
		c.emit(OpTransit, -1, 0, st.Line())
		return
	}
	// Unreachable for sema-accepted machines (transit targets are
	// validated), but keep the interpreter's runtime error just in case.
	c.emit(OpErr, c.l.errMsg(fmt.Sprintf(
		"core: seed %s: transit to unknown state %s", c.l.cm.Name, st.State)), 0, st.Line())
}

func (c *chunkCompiler) assign(st *AssignStmt) {
	c.expr(st.Val) // the value is evaluated before any target checks
	if st.Field != "" {
		if c.isDeclaredTrigger(st.Target) {
			if st.Field != "ival" {
				c.emit(OpErr, c.l.errMsg(fmt.Sprintf(
					"core: only .ival of trigger %s can be assigned", st.Target)), 0, st.Line())
				return
			}
			c.emit(OpSetIval, c.l.name(st.Target), 0, st.Line())
			return
		}
		site := FieldAssignSite{Target: st.Target, Field: st.Field, Local: -1, St: -1, Env: -1}
		if slot, ok := c.locals[st.Target]; ok {
			site.Local = slot
		}
		if c.sctx == nil {
			site.Dyn = true
		} else {
			if slot, ok := c.sctx.slots[st.Target]; ok {
				site.St = slot
			} else if slot, ok := c.l.envIdx[st.Target]; ok {
				site.Env = slot
			}
		}
		c.l.p.FieldAssigns = append(c.l.p.FieldAssigns, site)
		c.emit(OpFieldAssign, int32(len(c.l.p.FieldAssigns)-1), 0, st.Line())
		return
	}
	if c.isDeclaredTrigger(st.Target) {
		c.emit(OpSetTrigger, c.l.name(st.Target), 0, st.Line())
		return
	}
	c.storeName(st.Target, st.Line())
}

// isDeclaredTrigger mirrors Seed.isTrigger: only machine-declared
// triggers take the trigger-assignment path (the dispatch table may
// hold extra rows for undeclared event names; those do not count).
func (c *chunkCompiler) isDeclaredTrigger(name string) bool {
	for _, t := range c.l.cm.Triggers {
		if t.Name == name {
			return true
		}
	}
	return false
}

func (c *chunkCompiler) loadName(name string, line int) {
	if slot, ok := c.locals[name]; ok {
		if c.sctx == nil {
			c.emit(OpLoadLocDyn, slot, c.l.name(name), line)
		} else if ss, ok := c.sctx.slots[name]; ok {
			c.emit(OpLoadLocSt, slot, ss, line)
		} else if es, ok := c.l.envIdx[name]; ok {
			c.emit(OpLoadLocEnv, slot, es, line)
		} else {
			c.emit(OpLoadLocErr, slot, c.l.name(name), line)
		}
		return
	}
	if c.sctx == nil {
		c.emit(OpLoadDyn, c.l.name(name), 0, line)
		return
	}
	if ss, ok := c.sctx.slots[name]; ok {
		c.emit(OpLoadSt, ss, 0, line)
		return
	}
	if es, ok := c.l.envIdx[name]; ok {
		c.emit(OpLoadEnv, es, 0, line)
		return
	}
	c.emit(OpLoadErr, c.l.name(name), 0, line)
}

func (c *chunkCompiler) storeName(name string, line int) {
	if slot, ok := c.locals[name]; ok {
		if c.sctx == nil {
			c.emit(OpStoreLocDyn, slot, c.l.name(name), line)
		} else if ss, ok := c.sctx.slots[name]; ok {
			c.emit(OpStoreLocSt, slot, ss, line)
		} else if es, ok := c.l.envIdx[name]; ok {
			c.emit(OpStoreLocEnv, slot, es, line)
		} else {
			c.emit(OpStoreLocErr, slot, c.l.name(name), line)
		}
		return
	}
	if c.sctx == nil {
		c.emit(OpStoreDyn, c.l.name(name), 0, line)
		return
	}
	if ss, ok := c.sctx.slots[name]; ok {
		c.emit(OpStoreSt, ss, 0, line)
		return
	}
	if es, ok := c.l.envIdx[name]; ok {
		c.emit(OpStoreEnv, es, 0, line)
		return
	}
	c.emit(OpStoreErr, c.l.name(name), 0, line)
}

var binOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"==": OpEq, "<>": OpNe,
}

func (c *chunkCompiler) expr(e Expr) {
	switch ex := e.(type) {
	case *IntLit:
		c.emit(OpConst, c.l.lit(Lit{Kind: LitInt, I: ex.Val}), 0, ex.Line())
	case *FloatLit:
		c.emit(OpConst, c.l.lit(Lit{Kind: LitFloat, F: ex.Val}), 0, ex.Line())
	case *StringLit:
		c.emit(OpConst, c.l.lit(Lit{Kind: LitStr, S: ex.Val}), 0, ex.Line())
	case *BoolLit:
		c.emit(OpConst, c.l.lit(Lit{Kind: LitBool, B: ex.Val}), 0, ex.Line())
	case *Ident:
		c.loadName(ex.Name, ex.Line())
	case *UnaryExpr:
		c.expr(ex.X)
		switch ex.Op {
		case "not":
			c.emit(OpNot, 0, 0, ex.Line())
		case "-":
			c.emit(OpNeg, 0, 0, ex.Line())
		default:
			c.l.failf("unknown unary %q", ex.Op)
		}
	case *BinaryExpr:
		switch ex.Op {
		case "and":
			c.expr(ex.L)
			j := c.emit(OpAndL, 0, 0, ex.Line())
			c.expr(ex.R)
			c.emit(OpAndR, 0, 0, ex.Line())
			c.patch(j)
		case "or":
			c.expr(ex.L)
			j := c.emit(OpOrL, 0, 0, ex.Line())
			c.expr(ex.R)
			c.emit(OpTruthy, 0, 0, ex.Line())
			c.patch(j)
		default:
			op, ok := binOps[ex.Op]
			if !ok {
				c.l.failf("unknown operator %q", ex.Op)
				return
			}
			c.expr(ex.L)
			c.expr(ex.R)
			c.emit(op, 0, 0, ex.Line())
		}
	case *FieldExpr:
		c.expr(ex.X)
		c.emit(OpField, c.l.name(ex.Field), 0, ex.Line())
	case *CallExpr:
		c.call(ex)
	case *FilterAtom:
		if ex.Any {
			if ex.Field != "port" {
				c.emit(OpErr, c.l.errMsg(fmt.Sprintf(
					"core: ANY is only valid with port (line %d)", ex.Line())), 0, ex.Line())
				return
			}
			c.emit(OpFilterAny, 0, 0, ex.Line())
			return
		}
		c.expr(ex.Arg)
		c.emit(OpFilterAtom, c.l.name(ex.Field), 0, ex.Line())
	case *StructLit:
		site := StructSite{TypeName: ex.TypeName, Fields: make([]string, len(ex.Fields))}
		for i, f := range ex.Fields {
			site.Fields[i] = f.Name
			c.expr(f.Val)
		}
		c.l.p.Structs = append(c.l.p.Structs, site)
		c.emit(OpStructLit, int32(len(c.l.p.Structs)-1), 0, ex.Line())
	case *ListLit:
		for _, el := range ex.Elems {
			c.expr(el)
		}
		c.emit(OpListLit, int32(len(ex.Elems)), 0, ex.Line())
	default:
		c.l.failf("unknown expression %T", e)
	}
}

func (c *chunkCompiler) call(ex *CallExpr) {
	if c.l.builtin[ex.Name] {
		for _, a := range ex.Args {
			c.expr(a)
		}
		c.emit(OpCallB, c.l.name(ex.Name), int32(len(ex.Args)), ex.Line())
		return
	}
	if fi, ok := c.l.funcIdx[ex.Name]; ok {
		fn := &c.l.p.Funcs[fi]
		if int32(len(ex.Args)) != fn.NumParams {
			// The interpreter raises the arity error before evaluating
			// any argument; so do we.
			c.emit(OpErr, c.l.errMsg(fmt.Sprintf(
				"core: %s expects %d arguments, got %d (line %d)",
				ex.Name, fn.NumParams, len(ex.Args), ex.Line())), 0, ex.Line())
			return
		}
		for _, a := range ex.Args {
			c.expr(a)
		}
		c.emit(OpCallFn, fi, int32(len(ex.Args)), ex.Line())
		return
	}
	c.emit(OpErr, c.l.errMsg(fmt.Sprintf(
		"core: unknown function %s (line %d)", ex.Name, ex.Line())), 0, ex.Line())
}
