package almanac

import "fmt"

// Type is an Almanac value type (Fig. 3, typ).
type Type int

const (
	TUnknown Type = iota
	TBool
	TInt
	TLong
	TFloat
	TString
	TList
	TMap
	TPacket
	TAction
	TFilter
	TStruct // user struct; name carried separately where needed
)

func (t Type) String() string {
	switch t {
	case TBool:
		return "bool"
	case TInt:
		return "int"
	case TLong:
		return "long"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TList:
		return "list"
	case TMap:
		return "map"
	case TPacket:
		return "packet"
	case TAction:
		return "action"
	case TFilter:
		return "filter"
	case TStruct:
		return "struct"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// TriggerType is a trigger-variable type (Fig. 3, tty).
type TriggerType int

const (
	TrigTime TriggerType = iota + 1
	TrigPoll
	TrigProbe
)

func (t TriggerType) String() string {
	switch t {
	case TrigTime:
		return "time"
	case TrigPoll:
		return "poll"
	case TrigProbe:
		return "probe"
	}
	return fmt.Sprintf("TriggerType(%d)", int(t))
}

// --- Expressions ---

// Expr is an Almanac expression.
type Expr interface {
	isExpr()
	// Line returns the 1-based source line for diagnostics.
	Line() int
}

type exprBase struct{ line int }

func (exprBase) isExpr()     {}
func (e exprBase) Line() int { return e.line }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Val float64
}

// StringLit is a string literal.
type StringLit struct {
	exprBase
	Val string
}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Val bool
}

// Ident is a variable reference.
type Ident struct {
	exprBase
	Name string
}

// FieldExpr accesses a field: X.Field.
type FieldExpr struct {
	exprBase
	X     Expr
	Field string
}

// CallExpr calls a builtin or program function by name.
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
}

// UnaryExpr is "not X" or "-X".
type UnaryExpr struct {
	exprBase
	Op string
	X  Expr
}

// BinaryExpr is L op R. Ops: and or + - * / == <> <= >= < >.
type BinaryExpr struct {
	exprBase
	Op   string
	L, R Expr
}

// FilterAtom is a packet-filter atom (Fig. 3, fil): srcIP/dstIP/
// srcPort/dstPort/port/proto followed by an argument, or `port ANY`.
type FilterAtom struct {
	exprBase
	Field string // srcIP, dstIP, srcPort, dstPort, port, proto
	Any   bool   // `port ANY`
	Arg   Expr   // nil when Any
}

// FieldInit is one .name = expr member of a struct literal.
type FieldInit struct {
	Name string
	Val  Expr
}

// StructLit instantiates a struct: TypeName { .a = e, .b = e }.
type StructLit struct {
	exprBase
	TypeName string
	Fields   []FieldInit
}

// ListLit is [e1, e2, ...].
type ListLit struct {
	exprBase
	Elems []Expr
}

// --- Statements (actions, Fig. 3 ac) ---

// Stmt is an Almanac action.
type Stmt interface {
	isStmt()
	Line() int
}

type stmtBase struct{ line int }

func (stmtBase) isStmt()     {}
func (s stmtBase) Line() int { return s.line }

// AssignStmt assigns to a variable or a variable's field.
type AssignStmt struct {
	stmtBase
	Target string
	Field  string // optional: x.field = e (used to retune triggers, e.g. pollStats.ival)
	Val    Expr
}

// TransitStmt switches the machine to another state.
type TransitStmt struct {
	stmtBase
	State string
}

// IfStmt is if (cond) then {..} [else {..}].
type IfStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is while (cond) {..}.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// ReturnStmt returns from a function or util callback.
type ReturnStmt struct {
	stmtBase
	Val Expr // may be nil
}

// SendTarget identifies a message destination.
type SendTarget struct {
	Harvester bool
	Machine   string // seed machine name when not harvester
	Dst       Expr   // optional @dst selector; nil = broadcast to all instances
}

// SendStmt sends a value to a harvester or other seeds.
type SendStmt struct {
	stmtBase
	Val Expr
	To  SendTarget
}

// ExprStmt evaluates an expression for its effects (a call).
type ExprStmt struct {
	stmtBase
	X Expr
}

// DeclStmt declares a local variable inside a function or event body.
type DeclStmt struct {
	stmtBase
	Var VarDecl
}

// --- Declarations ---

// VarDecl declares a machine, state, or local variable.
type VarDecl struct {
	External bool
	Type     Type
	TypeName string // struct type name when Type == TStruct
	Name     string
	Init     Expr // may be nil
	DeclLine int
}

// TriggerDecl declares a trigger variable (tty y = ex).
type TriggerDecl struct {
	TType    TriggerType
	Name     string
	Init     Expr // StructLit Poll{...}/Probe{...} or plain interval expr for time
	DeclLine int
}

// Quant is the placement quantifier.
type Quant int

const (
	QAll Quant = iota + 1
	QAny
)

func (q Quant) String() string {
	if q == QAll {
		return "all"
	}
	return "any"
}

// Placement is one `place` directive (Fig. 3 pl).
type Placement struct {
	Quant    Quant
	Switches []Expr // case (b): explicit switch names/ids; empty otherwise
	// Range constraint (case c); HasRange false means cases (a)/(b).
	HasRange   bool
	Anchor     string // "sender", "receiver", "midpoint", or "" (any position)
	PathExpr   Expr   // boolean filter over paths; nil = all paths
	RangeOp    string // "==", "<=", ">=", "<", ">"
	RangeBound Expr
}

// UtilDecl is a state's utility callback.
type UtilDecl struct {
	Param    string
	Body     []Stmt
	DeclLine int
}

// TriggerKind classifies event triggers (Fig. 3 trg).
type TriggerKind int

const (
	TrigOnEnter TriggerKind = iota + 1
	TrigOnExit
	TrigOnRealloc
	TrigOnVar  // trigger variable fired (time/poll/probe)
	TrigOnRecv // message reception
)

func (k TriggerKind) String() string {
	switch k {
	case TrigOnEnter:
		return "enter"
	case TrigOnExit:
		return "exit"
	case TrigOnRealloc:
		return "realloc"
	case TrigOnVar:
		return "var"
	case TrigOnRecv:
		return "recv"
	}
	return fmt.Sprintf("TriggerKind(%d)", int(k))
}

// EventTrigger is the trg of a when clause.
type EventTrigger struct {
	Kind TriggerKind
	// TrigOnVar:
	VarName string
	AsName  string // optional `as x` binding
	// TrigOnRecv:
	RecvType      Type
	RecvTypeName  string // struct name when RecvType == TStruct
	RecvVar       string
	FromHarvester bool
	FromMachine   string
	FromDst       Expr // optional @dst
}

// key returns the override identity of a trigger: a state-level event
// overrides a machine-level event with the same key.
func (t EventTrigger) key() string {
	switch t.Kind {
	case TrigOnVar:
		return "var:" + t.VarName
	case TrigOnRecv:
		src := t.FromMachine
		if t.FromHarvester {
			src = "@harvester"
		}
		return fmt.Sprintf("recv:%v:%s:%s", t.RecvType, t.RecvVar, src)
	default:
		return t.Kind.String()
	}
}

// EventDecl is one when(trg) do {acs} clause.
type EventDecl struct {
	Trigger  EventTrigger
	Body     []Stmt
	DeclLine int
}

// StateDecl declares a machine state.
type StateDecl struct {
	Name     string
	Vars     []VarDecl
	Util     *UtilDecl
	Events   []EventDecl
	DeclLine int
}

// MachineDecl declares a seed state machine.
type MachineDecl struct {
	Name       string
	Extends    string
	Placements []Placement
	Vars       []VarDecl
	Triggers   []TriggerDecl
	States     []StateDecl
	Events     []EventDecl // machine-level events, applying to all states
	DeclLine   int
}

// Param is a function or struct field parameter.
type Param struct {
	Type     Type
	TypeName string
	Name     string
}

// FuncDecl is an auxiliary function (fundec).
type FuncDecl struct {
	Name     string
	Params   []Param
	Body     []Stmt
	DeclLine int
}

// StructDecl is a user struct (strdec).
type StructDecl struct {
	Name     string
	Fields   []Param
	DeclLine int
}

// Program is a parsed Almanac source file.
type Program struct {
	Structs  []StructDecl
	Funcs    []FuncDecl
	Machines []MachineDecl
}

// Machine returns the machine with the given name.
func (p *Program) Machine(name string) (*MachineDecl, bool) {
	for i := range p.Machines {
		if p.Machines[i].Name == name {
			return &p.Machines[i], true
		}
	}
	return nil, false
}
