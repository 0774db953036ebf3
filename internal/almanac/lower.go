package almanac

import "fmt"

// Lowering back end: compiles a post-sema CompiledMachine into a flat
// program — slot-indexed variable frames (machine vars, per-state
// persistent vars, per-handler locals), a dense state × trigger
// dispatch table, and register code for every event handler, every
// auxiliary function and the variables' initialisers, emitted in one
// walk over the AST (the instruction set and the emitter are in
// rlower.go). internal/core's VM runs that code allocation-free in
// steady state. The AST interpreter in internal/core's tests is the
// semantic reference, and the lowered program must be behaviourally
// indistinguishable from it (construction, states, emissions,
// snapshots, and error strings — the property tests there pin this).
//
// Design notes for exact interpreter parity:
//
//   - Sema has resolved every name in lexical block scope (resolve.go),
//     so each one has a single static home: a local register (one per
//     name a chunk declares, its binding or parameters first), a slot of
//     the state the handler belongs to, or a machine env slot. Functions
//     see only their parameters and locals, so a function chunk touches
//     no env or state slot. A name with no home is a Lower error: only a
//     machine built by hand, never resolved, can have one.
//   - Errors the interpreter raises lazily (unknown function, arity
//     mismatch, ANY on a non-port field) lower to error opcodes in
//     place, never to Lower failures: anything sema accepts must lower,
//     because the interpreter accepts it too.

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
// name is kept for snapshots.
type SlotDef struct {
	Name string
	Type Type
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
// struct variable: where the target lives, as an operand (a local
// register, a current-state slot or an env slot), plus names for errors.
type FieldAssignSite struct {
	Target string
	Field  string
	Dst    int32
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
	Funcs        []LoweredFunc
	Sends        []SendSite
	Structs      []StructSite
	FieldAssigns []FieldAssignSite

	// RegChunks holds every handler and function body and the init
	// chunk; the dispatch tables, Funcs and Init index it. RFieldSites
	// counts RField instructions across the program so executors can
	// size their inline-cache tables.
	RegChunks   []RegChunk
	RFieldSites int32

	// Private lists, sorted, the map variables whose `x = map_new()`
	// lowered to RMapReset (private.go says when a variable is private).
	Private []string

	// Init is the chunk that builds a seed's variables, the last one.
	// It runs the machine variables' initialisers in declaration order,
	// each seeing only the machine variables built before it, then every
	// state's variables' initialisers, state by state, which see every
	// machine variable and no state variable (sema holds them to that,
	// and a function they call sees no variable at all). The chunk's
	// locals are, in order: one per external machine variable, in
	// declaration order, holding the deployment's binding or undefined
	// when there is none (a bound one takes the binding after its
	// initialiser ran, an unbound one keeps the initialiser's value); one
	// per state variable, states in order, holding its built value when
	// the chunk ends; and the name of the initialiser running, for its
	// fault. The initial state's values also move into its frame once
	// all of them are built.
	Init int32
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
	private map[string]bool
	err     error
}

// Lower compiles a post-sema machine into its flat program.
// builtinNames is the runtime library (core.BuiltinNames()); lowering
// needs only the name set, so internal/core keeps its one-way
// dependency on internal/almanac. Lower never panics and never fails on
// what sema or DecodeXML accepts: constructs the interpreter would only
// fault on at runtime lower to error opcodes. A machine built by hand
// can hold what neither accepts: an AST shape no parser produces, a
// name with no static home, an event on a trigger the machine does not
// declare, no states or an initial state it does not declare. Those
// return an error, so a program that lowers always has a state to start
// in and a slot for every name.
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
	l.private = privateMaps(cm, l.builtin)
	l.p.Private = sortedNames(l.private)
	// resolveNames refused a function declared twice, so each name is
	// one index.
	for i := range cm.Funcs {
		l.funcIdx[cm.Funcs[i].Name] = int32(i)
		l.p.Funcs = append(l.p.Funcs, LoweredFunc{
			Name:      cm.Funcs[i].Name,
			NumParams: int32(len(cm.Funcs[i].Params)),
		})
	}
	for i, t := range cm.Triggers {
		l.trigIdx[t.Name] = int32(i)
		l.p.TriggerNames = append(l.p.TriggerNames, t.Name)
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
		sctx := &stateCtx{slots: slots}
		for ei := range st.Events {
			ev := &st.Events[ei]
			switch ev.Trigger.Kind {
			case TrigOnVar:
				ti, ok := l.trigIdx[ev.Trigger.VarName]
				if !ok {
					l.failf("event on undeclared trigger %s", ev.Trigger.VarName)
				} else if ls.OnVar[ti] == -1 {
					ls.OnVar[ti] = l.compileHandler(sctx, ev.Body, ev.Trigger.AsName)
				}
			case TrigOnEnter:
				if ls.Enter == -1 {
					ls.Enter = l.compileHandler(sctx, ev.Body, "")
				}
			case TrigOnExit:
				if ls.Exit == -1 {
					ls.Exit = l.compileHandler(sctx, ev.Body, "")
				}
			case TrigOnRealloc:
				if ls.Realloc == -1 {
					ls.Realloc = l.compileHandler(sctx, ev.Body, "")
				}
			case TrigOnRecv:
				ls.Recvs = append(ls.Recvs, RecvCase{
					Trigger: ev.Trigger,
					Chunk:   l.compileHandler(sctx, ev.Body, ev.Trigger.RecvVar),
				})
			}
		}
		l.p.States = append(l.p.States, ls)
		if st.Name == cm.InitialState {
			l.p.InitialState = int32(si)
		}
	}
	if len(cm.States) == 0 {
		l.failf("machine declares no states")
	} else if l.p.InitialState < 0 {
		l.failf("unknown initial state %s", cm.InitialState)
	}
	for i := range cm.Funcs {
		fd := &cm.Funcs[i]
		params := make([]string, len(fd.Params))
		for i, p := range fd.Params {
			params[i] = p.Name
		}
		l.p.Funcs[i].Chunk = l.compileChunk(nil, fd.Body, params)
	}
	l.p.Init = l.compileInit()
	if l.err != nil {
		return nil, l.err
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

// stateCtx is the state a handler is compiled in: its persistent slots
// by name.
type stateCtx struct {
	slots map[string]int32
}

// chunkCompiler walks one handler or function body and drives the
// emitter: expressions leave their value on the abstract operand stack,
// statements consume it.
type chunkCompiler struct {
	emitter
	l      *lowerer
	sctx   *stateCtx // nil inside auxiliary functions
	locals map[string]int32
	nloc   int32 // slots handed out so far
	// built is, in the init chunk, the machine variables built so far;
	// nil elsewhere, where all of them are.
	built map[string]bool
}

func (l *lowerer) compileHandler(sctx *stateCtx, body []Stmt, bindName string) int32 {
	if bindName == "" {
		return l.compileChunk(sctx, body, nil)
	}
	return l.compileChunk(sctx, body, []string{bindName})
}

// compileChunk compiles a body whose first local slots hold params (a
// handler's event binding, a function's parameters).
func (l *lowerer) compileChunk(sctx *stateCtx, body []Stmt, params []string) int32 {
	c := &chunkCompiler{emitter: emitter{lastProd: -1}, l: l, sctx: sctx, locals: map[string]int32{}}
	for i, p := range params {
		c.locals[p] = int32(i)
	}
	c.nloc = int32(len(params))
	// The frame size comes first: temporaries are numbered from it.
	loops := c.collectLocals(body)
	c.numLocals = c.nloc + loops
	c.stmts(body)
	l.p.RegChunks = append(l.p.RegChunks, c.finish(len(params) > 0))
	return int32(len(l.p.RegChunks) - 1)
}

// compileInit compiles Lowered.Init. It is the last chunk compiled, so
// the names, literals and sites it adds extend the pools without moving
// an index any other chunk holds.
func (l *lowerer) compileInit() int32 {
	cm := l.cm
	nExt := int32(0)
	for _, v := range cm.Vars {
		if v.External {
			nExt++
		}
	}
	c := &chunkCompiler{emitter: emitter{lastProd: -1}, l: l, sctx: &stateCtx{}, locals: map[string]int32{}, built: map[string]bool{}}
	c.numLocals = nExt + int32(l.p.StateSlots()) + 1
	running := c.numLocals - 1
	ext := int32(0)
	for i := range cm.Vars {
		v := &cm.Vars[i]
		line, slot := int32(v.DeclLine), l.envIdx[v.Name]
		if v.Init != nil {
			c.initValue(v.Init, REnvOpnd(slot), running, fmt.Sprintf("core: %s: init of %s", cm.Name, v.Name))
		} else if !v.External {
			c.emit(RZero, REnvOpnd(slot), int32(v.Type), 0, 0, line)
		}
		if v.External {
			if v.Init != nil {
				c.emit(RBindExternal, REnvOpnd(slot), ext, slot, 0, line)
			} else {
				c.emit(RMove, REnvOpnd(slot), ext, 0, 0, line)
			}
			ext++
		}
		c.built[v.Name] = true
	}
	reg := nExt
	for si := range cm.States {
		st := &cm.States[si]
		first := reg
		for j := range st.Vars {
			v := &st.Vars[j]
			if v.Init != nil {
				c.initValue(v.Init, reg, running, fmt.Sprintf("core: %s: state %s: init of %s", cm.Name, st.Name, v.Name))
			} else {
				c.emit(RZero, reg, int32(v.Type), 0, 0, int32(v.DeclLine))
			}
			reg++
		}
		if int32(si) == l.p.InitialState {
			for j := range st.Vars {
				c.emit(RMove, RStOpnd(int32(j)), first+int32(j), 0, 0, 0)
			}
		}
	}
	l.p.RegChunks = append(l.p.RegChunks, c.finish(false))
	return int32(len(l.p.RegChunks) - 1)
}

// initValue evaluates one initialiser into dst, first noting its name in
// register running.
func (c *chunkCompiler) initValue(init Expr, dst, running int32, name string) {
	line := int32(init.Line())
	c.emit(RMove, running, RLitOpnd(c.l.lit(Lit{Kind: LitStr, S: name})), 0, 0, line)
	c.expr(init)
	c.store(dst, c.pop(), line)
}

// collectLocals allocates a slot for every name a DeclStmt anywhere in
// the body introduces (declarations of one name in blocks that do not
// nest share it: sema keeps them from being visible at once) and returns
// how many while loops the body holds: each takes one more slot for its
// hidden counter, handed out as the walk reaches the loop.
func (c *chunkCompiler) collectLocals(body []Stmt) (loops int32) {
	for _, stmt := range body {
		switch st := stmt.(type) {
		case *DeclStmt:
			if _, ok := c.locals[st.Var.Name]; !ok {
				c.locals[st.Var.Name] = c.nloc
				c.nloc++
			}
		case *IfStmt:
			loops += c.collectLocals(st.Then) + c.collectLocals(st.Else)
		case *WhileStmt:
			loops += 1 + c.collectLocals(st.Body)
		}
	}
	return loops
}

// fail records an AST shape that cannot be lowered; the rest of the
// chunk is walked dead and Lower returns the error.
func (c *chunkCompiler) fail(format string, args ...any) {
	c.l.failf(format, args...)
	c.dead = true
}

// raise lowers a fault the interpreter raises when it gets here.
func (c *chunkCompiler) raise(line int32, format string, args ...any) {
	c.terminate(RErr, c.l.errMsg(fmt.Sprintf(format, args...)), line)
}

func (c *chunkCompiler) stmts(body []Stmt) {
	for _, stmt := range body {
		c.step()
		line := int32(stmt.Line())
		switch st := stmt.(type) {
		case *AssignStmt:
			c.assign(st)
		case *DeclStmt:
			if st.Var.Init != nil {
				c.expr(st.Var.Init)
			} else {
				c.produce(RZero, int32(st.Var.Type), 0, 0, line)
			}
			c.store(c.locals[st.Var.Name], c.pop(), line)
		case *TransitStmt:
			c.transit(st)
		case *ReturnStmt:
			v := int32(-1)
			if st.Val != nil {
				c.expr(st.Val)
				v = c.pop()
			}
			c.terminate(RReturn, v, line)
		case *IfStmt:
			var elseL, endL label
			c.condJump(st.Cond, line, &elseL)
			c.stmts(st.Then)
			if len(st.Else) > 0 {
				c.jump(&endL, line)
				c.bind(&elseL)
				c.stmts(st.Else)
				c.bind(&endL)
			} else {
				c.bind(&elseL)
			}
		case *WhileStmt:
			counter := c.nloc
			c.nloc++
			c.emit(RLoopInit, 0, counter, 0, 0, line)
			head := int32(len(c.code))
			c.emit(RLoopCheck, 0, counter, 0, 0, line)
			var exit label
			c.condJump(st.Cond, line, &exit)
			c.stmts(st.Body)
			c.terminate(RJump, head, line)
			c.bind(&exit)
		case *SendStmt:
			c.expr(st.Val)
			site := SendSite{Harvester: st.To.Harvester, Machine: st.To.Machine, HasDst: st.To.Dst != nil}
			dst := int32(-1)
			if site.HasDst {
				c.expr(st.To.Dst)
				dst = c.pop()
			}
			c.l.p.Sends = append(c.l.p.Sends, site)
			c.emit(RSend, 0, int32(len(c.l.p.Sends)-1), c.pop(), dst, line)
		case *ExprStmt:
			c.expr(st.X)
			c.pop() // deferred operands are effect-free; eager ones already ran
		default:
			c.fail("unknown statement %T", stmt)
			return
		}
	}
}

// fusedJump maps a comparison to its compare-and-branch form.
var fusedJump = map[string]ROp{
	"<": RJLt, "<=": RJLe, ">": RJGt, ">=": RJGe, "==": RJEq, "<>": RJNe,
}

// condJump emits the branch closing an if/while condition: to lb when
// cond is false. A condition that is a bare comparison becomes one
// compare-and-branch instruction: the comparison's boolean never
// materializes and the branch needs no truthiness check.
func (c *chunkCompiler) condJump(cond Expr, line int32, lb *label) {
	if cmp, ok := cond.(*BinaryExpr); ok {
		if op, ok := fusedJump[cmp.Op]; ok {
			c.expr(cmp.L)
			c.expr(cmp.R)
			r := c.pop()
			l := c.pop()
			c.jumpTo(lb, c.emit(op, 0, l, r, 0, int32(cmp.Line())), 'C')
			return
		}
	}
	c.expr(cond)
	c.jumpTo(lb, c.emit(RJF, 0, c.pop(), 0, 0, line), 'B')
}

func (c *chunkCompiler) transit(st *TransitStmt) {
	line := int32(st.Line())
	for i := range c.l.cm.States {
		if c.l.cm.States[i].Name == st.State {
			c.terminate(RTransit, int32(i), line)
			return
		}
	}
	if c.sctx == nil {
		// Inside a function the interpreter rejects any transit before
		// validating its target; the call site raises that error.
		c.terminate(RTransit, -1, line)
		return
	}
	c.fail("transit to undeclared state %s", st.State)
}

func (c *chunkCompiler) assign(st *AssignStmt) {
	line := int32(st.Line())
	if c.resetPrivate(st) {
		return
	}
	c.expr(st.Val) // the value is evaluated before any target checks
	dst, ok := c.lookup(st.Target)
	if !ok {
		if _, trig := c.l.trigIdx[st.Target]; !trig || c.sctx == nil {
			c.fail("assignment to unresolved name %s", st.Target)
		} else if st.Field == "" {
			c.emit(RSetTrigger, 0, c.l.name(st.Target), c.pop(), 0, line)
		} else if st.Field == "ival" {
			c.emit(RSetIval, 0, c.l.name(st.Target), c.pop(), 0, line)
		} else {
			c.raise(line, "core: only .ival of trigger %s can be assigned", st.Target)
		}
		return
	}
	if st.Field != "" {
		c.l.p.FieldAssigns = append(c.l.p.FieldAssigns, FieldAssignSite{Target: st.Target, Field: st.Field, Dst: dst})
		c.emit(RFieldAssign, 0, int32(len(c.l.p.FieldAssigns)-1), c.pop(), 0, line)
		return
	}
	c.internLocal(st.Target, dst)
	c.store(dst, c.pop(), line)
}

// resetPrivate lowers `x = map_new()` on a private map variable x to one
// RMapReset on x's slot, the instruction the call would have produced
// there, and reports whether it did. (A local or binding named x, in a
// handler that sees no variable x, is a register and keeps the call.)
func (c *chunkCompiler) resetPrivate(st *AssignStmt) bool {
	if st.Field != "" || !c.l.private[st.Target] || !isMapNew(st.Val, c.l.builtin) {
		return false
	}
	dst, ok := c.lookup(st.Target)
	if !ok || dst>>ROpndShift == RClassReg {
		return false
	}
	c.emit(RMapReset, dst, c.l.name("map_new"), -1, -1, int32(st.Val.Line()))
	return true
}

// lookup returns the operand that holds name: its local register, a
// slot of the handler's state or an env slot (in the init chunk, only
// of a machine variable built already). A function chunk has locals
// only.
func (c *chunkCompiler) lookup(name string) (int32, bool) {
	if slot, ok := c.locals[name]; ok {
		return slot, true
	}
	if c.sctx == nil {
		return 0, false
	}
	if ss, ok := c.sctx.slots[name]; ok {
		return RStOpnd(ss), true
	}
	if es, ok := c.l.envIdx[name]; ok && (c.built == nil || c.built[name]) {
		return REnvOpnd(es), true
	}
	return 0, false
}

// internLocal adds a local's name to the names pool when code reads or
// writes the local. Nothing looks a local up by name, but the pool is
// part of the lowered program the catalogue golden pins byte for byte.
func (c *chunkCompiler) internLocal(name string, opnd int32) {
	if opnd>>ROpndShift == RClassReg {
		c.l.name(name)
	}
}

// loadName pushes name's value. Every home is read in place: the
// consumer takes the operand as it is.
func (c *chunkCompiler) loadName(name string, line int32) {
	o, ok := c.lookup(name)
	if !ok {
		c.fail("unresolved name %s", name)
		return
	}
	c.internLocal(name, o)
	c.push(o)
}

var (
	unaryOps  = map[string]ROp{"not": RNot, "-": RNeg}
	binaryOps = map[string]ROp{
		"+": RAdd, "-": RSub, "*": RMul, "/": RDiv,
		"<": RLt, "<=": RLe, ">": RGt, ">=": RGe,
		"==": REq, "<>": RNe,
	}
)

// expr pushes e's value. Literals are deferred like slots are.
func (c *chunkCompiler) expr(e Expr) {
	if e == nil { // decoded XML: a filter atom that lost its argument
		c.fail("unknown expression %T", e)
		return
	}
	line := int32(e.Line())
	switch ex := e.(type) {
	case *IntLit:
		c.push(RLitOpnd(c.l.lit(Lit{Kind: LitInt, I: ex.Val})))
	case *FloatLit:
		c.push(RLitOpnd(c.l.lit(Lit{Kind: LitFloat, F: ex.Val})))
	case *StringLit:
		c.push(RLitOpnd(c.l.lit(Lit{Kind: LitStr, S: ex.Val})))
	case *BoolLit:
		c.push(RLitOpnd(c.l.lit(Lit{Kind: LitBool, B: ex.Val})))
	case *Ident:
		c.loadName(ex.Name, line)
	case *UnaryExpr:
		c.expr(ex.X)
		op, ok := unaryOps[ex.Op]
		if !ok {
			c.fail("unknown unary %q", ex.Op)
			return
		}
		c.produce(op, c.pop(), 0, 0, line)
	case *BinaryExpr:
		switch ex.Op {
		case "and", "or":
			// Left leg decides (RAndL/ROrL jump to the end with the
			// result in d) or falls through to the right leg, whose
			// value RAndR/RTruthy folds into d: both paths merge on one
			// register.
			lop, rop := RAndL, RAndR
			if ex.Op == "or" {
				lop, rop = ROrL, RTruthy
			}
			var end label
			c.expr(ex.L)
			c.materializeEnvSt(line)
			lhs := c.pop()
			d := c.temp()
			at := c.emit(lop, d, lhs, 0, 0, line)
			c.push(d)
			c.jumpTo(&end, at, 'B')
			c.expr(ex.R)
			c.emit(rop, d, c.pop(), 0, 0, line)
			c.bind(&end)
		default:
			op, ok := binaryOps[ex.Op]
			if !ok {
				c.fail("unknown operator %q", ex.Op)
				return
			}
			c.expr(ex.L)
			c.expr(ex.R)
			r := c.pop()
			l := c.pop()
			if op != RAdd || !c.fuseMulAdd(l, r) {
				c.produce(op, l, r, 0, line)
			}
		}
	case *FieldExpr:
		c.expr(ex.X)
		field := c.l.name(ex.Field)
		x := c.pop()
		if c.dead {
			return // a read that never runs claims no inline-cache site
		}
		c.produce(RField, x, field, c.l.p.RFieldSites, line)
		c.l.p.RFieldSites++
	case *CallExpr:
		c.call(ex)
	case *FilterAtom:
		if !ex.Any {
			c.expr(ex.Arg)
			c.produce(RFilterAtom, c.pop(), c.l.name(ex.Field), 0, line)
		} else if ex.Field == "port" {
			c.produce(RFilterAny, 0, 0, 0, line)
		} else {
			c.raise(line, "core: ANY is only valid with port (line %d)", line)
		}
	case *StructLit:
		site := StructSite{TypeName: ex.TypeName, Fields: make([]string, len(ex.Fields))}
		for i, f := range ex.Fields {
			site.Fields[i] = f.Name
			c.expr(f.Val)
		}
		c.l.p.Structs = append(c.l.p.Structs, site)
		c.produce(RStructLit, int32(len(c.l.p.Structs)-1), c.popWindow(len(ex.Fields), line), 0, line)
	case *ListLit:
		for _, el := range ex.Elems {
			c.expr(el)
		}
		n := len(ex.Elems)
		c.produce(RListLit, c.popWindow(n, line), int32(n), 0, line)
	default:
		c.fail("unknown expression %T", e)
	}
}

func (c *chunkCompiler) call(ex *CallExpr) {
	line, n := int32(ex.Line()), len(ex.Args)
	if c.l.builtin[ex.Name] {
		if ex.Name == "map_get" && n == 3 && isMapNew(ex.Args[2], c.l.builtin) {
			// The default is built only on a miss: map_new() has no
			// effect and cannot fail, so not evaluating it is the same
			// program.
			c.expr(ex.Args[0])
			c.expr(ex.Args[1])
			c.l.name("map_new")
			k, m := c.pop(), c.pop()
			c.produce(RMapGetNew, c.l.name(ex.Name), m, k, line)
			return
		}
		for _, a := range ex.Args {
			c.expr(a)
		}
		name := c.l.name(ex.Name)
		if n > 2 {
			c.produce(RCallB, name, c.popWindow(n, line), int32(n), line)
			return
		}
		// Up to two arguments are read in place; -1 marks an absent one.
		// The two list accessors the seed hot paths live on get their
		// own opcode with the same operand layout.
		op, a1, a2 := RCallB2, int32(-1), int32(-1)
		if n == 2 {
			a2 = c.pop()
		}
		if n >= 1 {
			a1 = c.pop()
		}
		if ex.Name == "list_len" && n == 1 {
			op = RListLen
		} else if ex.Name == "list_get" && n == 2 {
			op = RListGet
		}
		c.produce(op, name, a1, a2, line)
		return
	}
	fi, ok := c.l.funcIdx[ex.Name]
	if !ok {
		c.raise(line, "core: unknown function %s (line %d)", ex.Name, line)
		return
	}
	if want := c.l.p.Funcs[fi].NumParams; int32(n) != want {
		// The interpreter raises the arity error before evaluating any
		// argument; so do we.
		c.raise(line, "core: %s expects %d arguments, got %d (line %d)", ex.Name, want, n, line)
		return
	}
	for _, a := range ex.Args {
		c.expr(a)
	}
	c.produce(RCallFn, fi, c.popWindow(n, line), int32(n), line)
}
