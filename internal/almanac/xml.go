package almanac

import (
	"encoding/xml"
	"fmt"
	"strconv"
)

// The XML wire format: the seeder compiles Almanac machines and ships
// them to soils as XML for OS/vendor portability (§V-A-d). EncodeXML and
// DecodeXML round-trip a CompiledMachine exactly, but for the source
// lines of placements, utilities and structs: the lines of code,
// variables, triggers, events and functions travel, so an error about
// decoded code names the line it came from.

// EncodeXML serializes a compiled machine.
func EncodeXML(cm *CompiledMachine) ([]byte, error) {
	xm := xmlMachine{Name: cm.Name, Initial: cm.InitialState}
	for _, pl := range cm.Placements {
		xm.Placements = append(xm.Placements, placementToXML(pl))
	}
	for _, v := range cm.Vars {
		xm.Vars = append(xm.Vars, varToXML(v))
	}
	for _, tv := range cm.Triggers {
		xt := xmlTrigger{Type: tv.TType.String(), Name: tv.Name, Line: tv.DeclLine}
		if tv.Init != nil {
			n := exprToNode(tv.Init)
			xt.Init = &n
		}
		xm.Triggers = append(xm.Triggers, xt)
	}
	for _, st := range cm.States {
		xs := xmlState{Name: st.Name}
		for _, v := range st.Vars {
			xs.Vars = append(xs.Vars, varToXML(v))
		}
		if st.Util != nil {
			xs.Util = &xmlUtil{Param: st.Util.Param, Body: stmtsToNodes(st.Util.Body)}
		}
		for _, ev := range st.Events {
			xs.Events = append(xs.Events, eventToXML(ev))
		}
		xm.States = append(xm.States, xs)
	}
	for _, f := range cm.Funcs {
		xf := xmlFunc{Name: f.Name, Line: f.DeclLine, Body: stmtsToNodes(f.Body)}
		for _, p := range f.Params {
			xf.Params = append(xf.Params, xmlParam{Type: typeName(p.Type), TypeName: p.TypeName, Name: p.Name})
		}
		xm.Funcs = append(xm.Funcs, xf)
	}
	for _, s := range cm.Structs {
		xs := xmlStruct{Name: s.Name}
		for _, p := range s.Fields {
			xs.Fields = append(xs.Fields, xmlParam{Type: typeName(p.Type), TypeName: p.TypeName, Name: p.Name})
		}
		xm.Structs = append(xm.Structs, xs)
	}
	return xml.MarshalIndent(xm, "", "  ")
}

// DecodeXML deserializes a compiled machine.
func DecodeXML(data []byte) (*CompiledMachine, error) {
	var xm xmlMachine
	if err := xml.Unmarshal(data, &xm); err != nil {
		return nil, fmt.Errorf("almanac: xml: %w", err)
	}
	cm := &CompiledMachine{Name: xm.Name, InitialState: xm.Initial}
	for _, xp := range xm.Placements {
		pl, err := placementFromXML(xp)
		if err != nil {
			return nil, err
		}
		cm.Placements = append(cm.Placements, pl)
	}
	for _, xv := range xm.Vars {
		v, err := varFromXML(xv)
		if err != nil {
			return nil, err
		}
		cm.Vars = append(cm.Vars, v)
	}
	for _, xt := range xm.Triggers {
		tv := TriggerDecl{Name: xt.Name, DeclLine: xt.Line}
		switch xt.Type {
		case "time":
			tv.TType = TrigTime
		case "poll":
			tv.TType = TrigPoll
		case "probe":
			tv.TType = TrigProbe
		default:
			return nil, fmt.Errorf("almanac: xml: unknown trigger type %q", xt.Type)
		}
		if xt.Init != nil {
			ex, err := nodeToExpr(*xt.Init)
			if err != nil {
				return nil, err
			}
			tv.Init = ex
		}
		cm.Triggers = append(cm.Triggers, tv)
	}
	for _, xs := range xm.States {
		st := CompiledState{Name: xs.Name}
		for _, xv := range xs.Vars {
			v, err := varFromXML(xv)
			if err != nil {
				return nil, err
			}
			st.Vars = append(st.Vars, v)
		}
		if xs.Util != nil {
			body, err := nodesToStmts(xs.Util.Body)
			if err != nil {
				return nil, err
			}
			st.Util = &UtilDecl{Param: xs.Util.Param, Body: body}
		}
		for _, xe := range xs.Events {
			ev, err := eventFromXML(xe)
			if err != nil {
				return nil, err
			}
			st.Events = append(st.Events, ev)
		}
		cm.States = append(cm.States, st)
	}
	// Sema guarantees both for anything EncodeXML was given; decoded
	// bytes come from the wire.
	if len(cm.States) == 0 {
		return nil, fmt.Errorf("almanac: xml: machine %s: machine declares no states", cm.Name)
	}
	if _, ok := cm.State(cm.InitialState); !ok {
		return nil, fmt.Errorf("almanac: xml: machine %s: unknown initial state %s", cm.Name, cm.InitialState)
	}
	for _, xf := range xm.Funcs {
		f := FuncDecl{Name: xf.Name, DeclLine: xf.Line}
		for _, p := range xf.Params {
			typ, err := typeFromName(p.Type)
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, Param{Type: typ, TypeName: p.TypeName, Name: p.Name})
		}
		body, err := nodesToStmts(xf.Body)
		if err != nil {
			return nil, err
		}
		f.Body = body
		cm.Funcs = append(cm.Funcs, f)
	}
	for _, xs := range xm.Structs {
		s := StructDecl{Name: xs.Name}
		for _, p := range xs.Fields {
			typ, err := typeFromName(p.Type)
			if err != nil {
				return nil, err
			}
			s.Fields = append(s.Fields, Param{Type: typ, TypeName: p.TypeName, Name: p.Name})
		}
		cm.Structs = append(cm.Structs, s)
	}
	// Decoded bytes come from the wire: resolve their names as sema
	// resolves a source's.
	if err := resolveNames(cm); err != nil {
		return nil, err
	}
	return cm, nil
}

// --- XML schema types ---

type xmlMachine struct {
	XMLName    xml.Name       `xml:"machine"`
	Name       string         `xml:"name,attr"`
	Initial    string         `xml:"initial,attr"`
	Placements []xmlPlacement `xml:"placement"`
	Vars       []xmlVar       `xml:"var"`
	Triggers   []xmlTrigger   `xml:"trigger"`
	States     []xmlState     `xml:"state"`
	Funcs      []xmlFunc      `xml:"function"`
	Structs    []xmlStruct    `xml:"struct"`
}

type xmlPlacement struct {
	Quant    string    `xml:"quant,attr"`
	Anchor   string    `xml:"anchor,attr,omitempty"`
	HasRange bool      `xml:"hasRange,attr,omitempty"`
	RangeOp  string    `xml:"rangeOp,attr,omitempty"`
	Switches []xmlNode `xml:"switch>node"`
	PathExpr *xmlNode  `xml:"path>node"`
	Bound    *xmlNode  `xml:"bound>node"`
}

type xmlVar struct {
	Line     int      `xml:"line,attr,omitempty"`
	External bool     `xml:"external,attr,omitempty"`
	Type     string   `xml:"type,attr"`
	TypeName string   `xml:"typeName,attr,omitempty"`
	Name     string   `xml:"name,attr"`
	Init     *xmlNode `xml:"init>node"`
}

type xmlTrigger struct {
	Line int      `xml:"line,attr,omitempty"`
	Type string   `xml:"type,attr"`
	Name string   `xml:"name,attr"`
	Init *xmlNode `xml:"init>node"`
}

type xmlUtil struct {
	Param string    `xml:"param,attr"`
	Body  []xmlNode `xml:"body>node"`
}

type xmlEvent struct {
	Line          int       `xml:"line,attr,omitempty"`
	Kind          string    `xml:"kind,attr"`
	VarName       string    `xml:"varName,attr,omitempty"`
	AsName        string    `xml:"asName,attr,omitempty"`
	RecvType      string    `xml:"recvType,attr,omitempty"`
	RecvTypeName  string    `xml:"recvTypeName,attr,omitempty"`
	RecvVar       string    `xml:"recvVar,attr,omitempty"`
	FromHarvester bool      `xml:"fromHarvester,attr,omitempty"`
	FromMachine   string    `xml:"fromMachine,attr,omitempty"`
	FromDst       *xmlNode  `xml:"fromDst>node"`
	Body          []xmlNode `xml:"body>node"`
}

type xmlState struct {
	Name   string     `xml:"name,attr"`
	Vars   []xmlVar   `xml:"var"`
	Util   *xmlUtil   `xml:"util"`
	Events []xmlEvent `xml:"event"`
}

type xmlParam struct {
	Type     string `xml:"type,attr"`
	TypeName string `xml:"typeName,attr,omitempty"`
	Name     string `xml:"name,attr"`
}

type xmlFunc struct {
	Line   int        `xml:"line,attr,omitempty"`
	Name   string     `xml:"name,attr"`
	Params []xmlParam `xml:"param"`
	Body   []xmlNode  `xml:"body>node"`
}

type xmlStruct struct {
	Name   string     `xml:"name,attr"`
	Fields []xmlParam `xml:"field"`
}

// xmlNode is the generic AST node encoding.
type xmlNode struct {
	Line int       `xml:"line,attr,omitempty"`
	Kind string    `xml:"kind,attr"`
	S    string    `xml:"s,attr,omitempty"`
	S2   string    `xml:"s2,attr,omitempty"`
	N    string    `xml:"n,attr,omitempty"`
	B    bool      `xml:"b,attr,omitempty"`
	Kids []xmlNode `xml:"node"`
}

func typeName(t Type) string { return t.String() }

func typeFromName(s string) (Type, error) {
	for _, t := range []Type{TBool, TInt, TLong, TFloat, TString, TList, TMap, TPacket, TAction, TFilter, TStruct} {
		if t.String() == s {
			return t, nil
		}
	}
	if s == "" {
		return TUnknown, nil
	}
	return TUnknown, fmt.Errorf("almanac: xml: unknown type %q", s)
}

func varToXML(v VarDecl) xmlVar {
	xv := xmlVar{Line: v.DeclLine, External: v.External, Type: typeName(v.Type), TypeName: v.TypeName, Name: v.Name}
	if v.Init != nil {
		n := exprToNode(v.Init)
		xv.Init = &n
	}
	return xv
}

func varFromXML(xv xmlVar) (VarDecl, error) {
	typ, err := typeFromName(xv.Type)
	if err != nil {
		return VarDecl{}, err
	}
	v := VarDecl{External: xv.External, Type: typ, TypeName: xv.TypeName, Name: xv.Name, DeclLine: xv.Line}
	if xv.Init != nil {
		ex, err := nodeToExpr(*xv.Init)
		if err != nil {
			return VarDecl{}, err
		}
		v.Init = ex
	}
	return v, nil
}

func placementToXML(pl Placement) xmlPlacement {
	xp := xmlPlacement{Quant: pl.Quant.String(), Anchor: pl.Anchor, HasRange: pl.HasRange, RangeOp: pl.RangeOp}
	for _, ex := range pl.Switches {
		xp.Switches = append(xp.Switches, exprToNode(ex))
	}
	if pl.PathExpr != nil {
		n := exprToNode(pl.PathExpr)
		xp.PathExpr = &n
	}
	if pl.RangeBound != nil {
		n := exprToNode(pl.RangeBound)
		xp.Bound = &n
	}
	return xp
}

func placementFromXML(xp xmlPlacement) (Placement, error) {
	pl := Placement{Anchor: xp.Anchor, HasRange: xp.HasRange, RangeOp: xp.RangeOp}
	switch xp.Quant {
	case "all":
		pl.Quant = QAll
	case "any":
		pl.Quant = QAny
	default:
		return Placement{}, fmt.Errorf("almanac: xml: unknown quantifier %q", xp.Quant)
	}
	for _, n := range xp.Switches {
		ex, err := nodeToExpr(n)
		if err != nil {
			return Placement{}, err
		}
		pl.Switches = append(pl.Switches, ex)
	}
	if xp.PathExpr != nil {
		ex, err := nodeToExpr(*xp.PathExpr)
		if err != nil {
			return Placement{}, err
		}
		pl.PathExpr = ex
	}
	if xp.Bound != nil {
		ex, err := nodeToExpr(*xp.Bound)
		if err != nil {
			return Placement{}, err
		}
		pl.RangeBound = ex
	}
	return pl, nil
}

func eventToXML(ev EventDecl) xmlEvent {
	xe := xmlEvent{
		Line:          ev.DeclLine,
		Kind:          ev.Trigger.Kind.String(),
		VarName:       ev.Trigger.VarName,
		AsName:        ev.Trigger.AsName,
		RecvVar:       ev.Trigger.RecvVar,
		RecvTypeName:  ev.Trigger.RecvTypeName,
		FromHarvester: ev.Trigger.FromHarvester,
		FromMachine:   ev.Trigger.FromMachine,
		Body:          stmtsToNodes(ev.Body),
	}
	if ev.Trigger.RecvType != TUnknown {
		xe.RecvType = typeName(ev.Trigger.RecvType)
	}
	if ev.Trigger.FromDst != nil {
		n := exprToNode(ev.Trigger.FromDst)
		xe.FromDst = &n
	}
	return xe
}

func eventFromXML(xe xmlEvent) (EventDecl, error) {
	ev := EventDecl{DeclLine: xe.Line}
	switch xe.Kind {
	case "enter":
		ev.Trigger.Kind = TrigOnEnter
	case "exit":
		ev.Trigger.Kind = TrigOnExit
	case "realloc":
		ev.Trigger.Kind = TrigOnRealloc
	case "var":
		ev.Trigger.Kind = TrigOnVar
	case "recv":
		ev.Trigger.Kind = TrigOnRecv
	default:
		return EventDecl{}, fmt.Errorf("almanac: xml: unknown event kind %q", xe.Kind)
	}
	ev.Trigger.VarName = xe.VarName
	ev.Trigger.AsName = xe.AsName
	ev.Trigger.RecvVar = xe.RecvVar
	ev.Trigger.RecvTypeName = xe.RecvTypeName
	ev.Trigger.FromHarvester = xe.FromHarvester
	ev.Trigger.FromMachine = xe.FromMachine
	if xe.RecvType != "" {
		typ, err := typeFromName(xe.RecvType)
		if err != nil {
			return EventDecl{}, err
		}
		ev.Trigger.RecvType = typ
	}
	if xe.FromDst != nil {
		ex, err := nodeToExpr(*xe.FromDst)
		if err != nil {
			return EventDecl{}, err
		}
		ev.Trigger.FromDst = ex
	}
	body, err := nodesToStmts(xe.Body)
	if err != nil {
		return EventDecl{}, err
	}
	ev.Body = body
	return ev, nil
}

// --- Expression/statement node encoding ---

// lined is an AST node whose source line decoding restores.
type lined interface{ setLine(int) }

func (e *exprBase) setLine(line int) { e.line = line }
func (s *stmtBase) setLine(line int) { s.line = line }

func exprToNode(e Expr) xmlNode {
	n := exprNode(e)
	n.Line = e.Line()
	return n
}

func exprNode(e Expr) xmlNode {
	switch ex := e.(type) {
	case *IntLit:
		return xmlNode{Kind: "int", N: strconv.FormatInt(ex.Val, 10)}
	case *FloatLit:
		return xmlNode{Kind: "float", N: strconv.FormatFloat(ex.Val, 'g', -1, 64)}
	case *StringLit:
		return xmlNode{Kind: "string", S: ex.Val}
	case *BoolLit:
		return xmlNode{Kind: "bool", B: ex.Val}
	case *Ident:
		return xmlNode{Kind: "ident", S: ex.Name}
	case *FieldExpr:
		return xmlNode{Kind: "field", S: ex.Field, Kids: []xmlNode{exprToNode(ex.X)}}
	case *CallExpr:
		n := xmlNode{Kind: "call", S: ex.Name}
		for _, a := range ex.Args {
			n.Kids = append(n.Kids, exprToNode(a))
		}
		return n
	case *UnaryExpr:
		return xmlNode{Kind: "unary", S: ex.Op, Kids: []xmlNode{exprToNode(ex.X)}}
	case *BinaryExpr:
		return xmlNode{Kind: "binary", S: ex.Op, Kids: []xmlNode{exprToNode(ex.L), exprToNode(ex.R)}}
	case *FilterAtom:
		n := xmlNode{Kind: "filter", S: ex.Field, B: ex.Any}
		if ex.Arg != nil {
			n.Kids = []xmlNode{exprToNode(ex.Arg)}
		}
		return n
	case *StructLit:
		n := xmlNode{Kind: "struct", S: ex.TypeName}
		for _, f := range ex.Fields {
			n.Kids = append(n.Kids, xmlNode{Kind: "fieldinit", S: f.Name, Kids: []xmlNode{exprToNode(f.Val)}})
		}
		return n
	case *ListLit:
		n := xmlNode{Kind: "list"}
		for _, el := range ex.Elems {
			n.Kids = append(n.Kids, exprToNode(el))
		}
		return n
	}
	return xmlNode{Kind: "unknown"}
}

func nodeToExpr(n xmlNode) (Expr, error) {
	e, err := nodeExpr(n)
	if err != nil {
		return nil, err
	}
	e.(lined).setLine(n.Line)
	return e, nil
}

func nodeExpr(n xmlNode) (Expr, error) {
	switch n.Kind {
	case "int":
		v, err := strconv.ParseInt(n.N, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("almanac: xml: bad int %q", n.N)
		}
		return &IntLit{Val: v}, nil
	case "float":
		v, err := strconv.ParseFloat(n.N, 64)
		if err != nil {
			return nil, fmt.Errorf("almanac: xml: bad float %q", n.N)
		}
		return &FloatLit{Val: v}, nil
	case "string":
		return &StringLit{Val: n.S}, nil
	case "bool":
		return &BoolLit{Val: n.B}, nil
	case "ident":
		return &Ident{Name: n.S}, nil
	case "field":
		if len(n.Kids) != 1 {
			return nil, fmt.Errorf("almanac: xml: field needs 1 child")
		}
		x, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		return &FieldExpr{X: x, Field: n.S}, nil
	case "call":
		call := &CallExpr{Name: n.S}
		for _, k := range n.Kids {
			a, err := nodeToExpr(k)
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		return call, nil
	case "unary":
		if len(n.Kids) != 1 {
			return nil, fmt.Errorf("almanac: xml: unary needs 1 child")
		}
		x, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: n.S, X: x}, nil
	case "binary":
		if len(n.Kids) != 2 {
			return nil, fmt.Errorf("almanac: xml: binary needs 2 children")
		}
		l, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		r, err := nodeToExpr(n.Kids[1])
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: n.S, L: l, R: r}, nil
	case "filter":
		fa := &FilterAtom{Field: n.S, Any: n.B}
		if len(n.Kids) == 1 {
			a, err := nodeToExpr(n.Kids[0])
			if err != nil {
				return nil, err
			}
			fa.Arg = a
		}
		return fa, nil
	case "struct":
		lit := &StructLit{TypeName: n.S}
		for _, k := range n.Kids {
			if k.Kind != "fieldinit" || len(k.Kids) != 1 {
				return nil, fmt.Errorf("almanac: xml: bad struct field")
			}
			v, err := nodeToExpr(k.Kids[0])
			if err != nil {
				return nil, err
			}
			lit.Fields = append(lit.Fields, FieldInit{Name: k.S, Val: v})
		}
		return lit, nil
	case "list":
		lit := &ListLit{}
		for _, k := range n.Kids {
			el, err := nodeToExpr(k)
			if err != nil {
				return nil, err
			}
			lit.Elems = append(lit.Elems, el)
		}
		return lit, nil
	}
	return nil, fmt.Errorf("almanac: xml: unknown expression kind %q", n.Kind)
}

func stmtsToNodes(stmts []Stmt) []xmlNode {
	out := make([]xmlNode, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, stmtToNode(s))
	}
	return out
}

func block(kids []xmlNode) xmlNode { return xmlNode{Kind: "block", Kids: kids} }

func stmtToNode(s Stmt) xmlNode {
	n := stmtNode(s)
	n.Line = s.Line()
	return n
}

func stmtNode(s Stmt) xmlNode {
	switch st := s.(type) {
	case *AssignStmt:
		return xmlNode{Kind: "assign", S: st.Target, S2: st.Field, Kids: []xmlNode{exprToNode(st.Val)}}
	case *TransitStmt:
		return xmlNode{Kind: "transit", S: st.State}
	case *IfStmt:
		kids := []xmlNode{exprToNode(st.Cond), block(stmtsToNodes(st.Then))}
		if len(st.Else) > 0 {
			kids = append(kids, block(stmtsToNodes(st.Else)))
		}
		return xmlNode{Kind: "if", Kids: kids}
	case *WhileStmt:
		return xmlNode{Kind: "while", Kids: []xmlNode{exprToNode(st.Cond), block(stmtsToNodes(st.Body))}}
	case *ReturnStmt:
		n := xmlNode{Kind: "return"}
		if st.Val != nil {
			n.Kids = []xmlNode{exprToNode(st.Val)}
		}
		return n
	case *SendStmt:
		n := xmlNode{Kind: "send", S: st.To.Machine, B: st.To.Harvester, Kids: []xmlNode{exprToNode(st.Val)}}
		if st.To.Dst != nil {
			n.Kids = append(n.Kids, exprToNode(st.To.Dst))
		}
		return n
	case *ExprStmt:
		return xmlNode{Kind: "expr", Kids: []xmlNode{exprToNode(st.X)}}
	case *DeclStmt:
		n := xmlNode{Kind: "decl", S: st.Var.Name, S2: typeName(st.Var.Type) + ":" + st.Var.TypeName}
		if st.Var.Init != nil {
			n.Kids = []xmlNode{exprToNode(st.Var.Init)}
		}
		return n
	}
	return xmlNode{Kind: "unknown"}
}

func nodesToStmts(nodes []xmlNode) ([]Stmt, error) {
	var out []Stmt
	for _, n := range nodes {
		s, err := nodeToStmt(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func nodeToStmt(n xmlNode) (Stmt, error) {
	s, err := nodeStmt(n)
	if err != nil {
		return nil, err
	}
	s.(lined).setLine(n.Line)
	return s, nil
}

func nodeStmt(n xmlNode) (Stmt, error) {
	switch n.Kind {
	case "assign":
		if len(n.Kids) != 1 {
			return nil, fmt.Errorf("almanac: xml: assign needs 1 child")
		}
		v, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Target: n.S, Field: n.S2, Val: v}, nil
	case "transit":
		return &TransitStmt{State: n.S}, nil
	case "if":
		if len(n.Kids) < 2 {
			return nil, fmt.Errorf("almanac: xml: if needs cond and then")
		}
		cond, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		thenB, err := nodesToStmts(n.Kids[1].Kids)
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: thenB}
		if len(n.Kids) == 3 {
			elseB, err := nodesToStmts(n.Kids[2].Kids)
			if err != nil {
				return nil, err
			}
			st.Else = elseB
		}
		return st, nil
	case "while":
		if len(n.Kids) != 2 {
			return nil, fmt.Errorf("almanac: xml: while needs cond and body")
		}
		cond, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		body, err := nodesToStmts(n.Kids[1].Kids)
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case "return":
		st := &ReturnStmt{}
		if len(n.Kids) == 1 {
			v, err := nodeToExpr(n.Kids[0])
			if err != nil {
				return nil, err
			}
			st.Val = v
		}
		return st, nil
	case "send":
		if len(n.Kids) < 1 {
			return nil, fmt.Errorf("almanac: xml: send needs a value")
		}
		v, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		st := &SendStmt{Val: v, To: SendTarget{Harvester: n.B, Machine: n.S}}
		if len(n.Kids) == 2 {
			dst, err := nodeToExpr(n.Kids[1])
			if err != nil {
				return nil, err
			}
			st.To.Dst = dst
		}
		return st, nil
	case "expr":
		if len(n.Kids) != 1 {
			return nil, fmt.Errorf("almanac: xml: expr needs 1 child")
		}
		x, err := nodeToExpr(n.Kids[0])
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: x}, nil
	case "decl":
		var typStr, typName string
		for i, c := range n.S2 {
			if c == ':' {
				typStr, typName = n.S2[:i], n.S2[i+1:]
				break
			}
		}
		typ, err := typeFromName(typStr)
		if err != nil {
			return nil, err
		}
		st := &DeclStmt{Var: VarDecl{Name: n.S, Type: typ, TypeName: typName}}
		if len(n.Kids) == 1 {
			v, err := nodeToExpr(n.Kids[0])
			if err != nil {
				return nil, err
			}
			st.Var.Init = v
		}
		return st, nil
	}
	return nil, fmt.Errorf("almanac: xml: unknown statement kind %q", n.Kind)
}
