package almanac

import "strconv"

// Parse parses Almanac source into a Program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token { // token after cur
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(kind TokenKind) bool {
	if p.cur().Kind == kind {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, what string) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, errAt(p.cur().Line, p.cur().Col, "expected %s, found %s", what, p.cur())
	}
	return p.advance(), nil
}

func (p *parser) errHere(format string, args ...any) error {
	return errAt(p.cur().Line, p.cur().Col, format, args...)
}

// expectFieldName accepts an identifier or any word-shaped keyword as a
// field name (packet fields share names with filter keywords: p.dstIP,
// r.port, ...).
func (p *parser) expectFieldName() (Token, error) {
	t := p.cur()
	if t.Kind == tokIdent {
		return p.advance(), nil
	}
	if t.Text != "" && isWord(t.Text) {
		return p.advance(), nil
	}
	return Token{}, errAt(t.Line, t.Col, "expected field name, found %s", t)
}

func isWord(s string) bool {
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// --- Program structure ---

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != tokEOF {
		switch p.cur().Kind {
		case tokStruct:
			sd, err := p.parseStructDecl()
			if err != nil {
				return nil, err
			}
			prog.Structs = append(prog.Structs, sd)
		case tokFunction:
			fd, err := p.parseFuncDecl()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fd)
		case tokMachine:
			md, err := p.parseMachineDecl()
			if err != nil {
				return nil, err
			}
			prog.Machines = append(prog.Machines, md)
		default:
			return nil, p.errHere("expected struct, function, or machine declaration, found %s", p.cur())
		}
	}
	return prog, nil
}

func (p *parser) parseStructDecl() (StructDecl, error) {
	start := p.advance() // struct
	name, err := p.expect(tokIdent, "struct name")
	if err != nil {
		return StructDecl{}, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return StructDecl{}, err
	}
	sd := StructDecl{Name: name.Text, DeclLine: start.Line}
	for p.cur().Kind != tokRBrace {
		typ, typName, err := p.parseType()
		if err != nil {
			return StructDecl{}, err
		}
		fname, err := p.expect(tokIdent, "field name")
		if err != nil {
			return StructDecl{}, err
		}
		if _, err := p.expect(tokSemicolon, ";"); err != nil {
			return StructDecl{}, err
		}
		sd.Fields = append(sd.Fields, Param{Type: typ, TypeName: typName, Name: fname.Text})
	}
	p.advance() // }
	return sd, nil
}

func (p *parser) parseFuncDecl() (FuncDecl, error) {
	start := p.advance() // function
	name, err := p.expect(tokIdent, "function name")
	if err != nil {
		return FuncDecl{}, err
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return FuncDecl{}, err
	}
	fd := FuncDecl{Name: name.Text, DeclLine: start.Line}
	for p.cur().Kind != tokRParen {
		typ, typName, err := p.parseType()
		if err != nil {
			return FuncDecl{}, err
		}
		pname, err := p.expect(tokIdent, "parameter name")
		if err != nil {
			return FuncDecl{}, err
		}
		fd.Params = append(fd.Params, Param{Type: typ, TypeName: typName, Name: pname.Text})
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return FuncDecl{}, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return FuncDecl{}, err
	}
	fd.Body = body
	return fd, nil
}

// isTypeToken reports whether kind begins a value type.
func isTypeToken(kind TokenKind) bool {
	switch kind {
	case tokTypeBool, tokTypeInt, tokTypeLong, tokTypeFloat, tokTypeString,
		tokTypeList, tokTypeMap, tokTypePacket, tokTypeAction, tokTypeFilter:
		return true
	}
	return false
}

// parseType consumes a type keyword or struct type name.
func (p *parser) parseType() (Type, string, error) {
	t := p.cur()
	switch t.Kind {
	case tokTypeBool:
		p.advance()
		return TBool, "", nil
	case tokTypeInt:
		p.advance()
		return TInt, "", nil
	case tokTypeLong:
		p.advance()
		return TLong, "", nil
	case tokTypeFloat:
		p.advance()
		return TFloat, "", nil
	case tokTypeString:
		p.advance()
		return TString, "", nil
	case tokTypeList:
		p.advance()
		return TList, "", nil
	case tokTypeMap:
		p.advance()
		return TMap, "", nil
	case tokTypePacket:
		p.advance()
		return TPacket, "", nil
	case tokTypeAction:
		p.advance()
		return TAction, "", nil
	case tokTypeFilter:
		p.advance()
		return TFilter, "", nil
	case tokIdent:
		p.advance()
		return TStruct, t.Text, nil
	}
	return TUnknown, "", p.errHere("expected type, found %s", t)
}

// --- Machines ---

func (p *parser) parseMachineDecl() (MachineDecl, error) {
	start := p.advance() // machine
	name, err := p.expect(tokIdent, "machine name")
	if err != nil {
		return MachineDecl{}, err
	}
	md := MachineDecl{Name: name.Text, DeclLine: start.Line}
	if p.accept(tokExtends) {
		parent, err := p.expect(tokIdent, "parent machine name")
		if err != nil {
			return MachineDecl{}, err
		}
		md.Extends = parent.Text
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return MachineDecl{}, err
	}
	for p.cur().Kind != tokRBrace {
		switch p.cur().Kind {
		case tokPlace:
			pl, err := p.parsePlacement()
			if err != nil {
				return MachineDecl{}, err
			}
			md.Placements = append(md.Placements, pl)
		case tokState:
			st, err := p.parseStateDecl()
			if err != nil {
				return MachineDecl{}, err
			}
			md.States = append(md.States, st)
		case tokWhen:
			ev, err := p.parseEventDecl()
			if err != nil {
				return MachineDecl{}, err
			}
			md.Events = append(md.Events, ev)
		case tokTime, tokPoll, tokProbe:
			td, err := p.parseTriggerDecl()
			if err != nil {
				return MachineDecl{}, err
			}
			md.Triggers = append(md.Triggers, td)
		default:
			vd, err := p.parseVarDecl()
			if err != nil {
				return MachineDecl{}, err
			}
			md.Vars = append(md.Vars, vd)
		}
	}
	p.advance() // }
	return md, nil
}

func (p *parser) parseVarDecl() (VarDecl, error) {
	line := p.cur().Line
	external := p.accept(tokExternal)
	typ, typName, err := p.parseType()
	if err != nil {
		return VarDecl{}, err
	}
	name, err := p.expect(tokIdent, "variable name")
	if err != nil {
		return VarDecl{}, err
	}
	vd := VarDecl{External: external, Type: typ, TypeName: typName, Name: name.Text, DeclLine: line}
	if p.accept(tokAssign) {
		init, err := p.parseExpr()
		if err != nil {
			return VarDecl{}, err
		}
		vd.Init = init
	}
	if _, err := p.expect(tokSemicolon, ";"); err != nil {
		return VarDecl{}, err
	}
	return vd, nil
}

func (p *parser) parseTriggerDecl() (TriggerDecl, error) {
	start := p.advance() // time/poll/probe
	var tt TriggerType
	switch start.Kind {
	case tokTime:
		tt = TrigTime
	case tokPoll:
		tt = TrigPoll
	case tokProbe:
		tt = TrigProbe
	}
	name, err := p.expect(tokIdent, "trigger variable name")
	if err != nil {
		return TriggerDecl{}, err
	}
	td := TriggerDecl{TType: tt, Name: name.Text, DeclLine: start.Line}
	if p.accept(tokAssign) {
		init, err := p.parseExpr()
		if err != nil {
			return TriggerDecl{}, err
		}
		td.Init = init
	}
	if _, err := p.expect(tokSemicolon, ";"); err != nil {
		return TriggerDecl{}, err
	}
	return td, nil
}

func (p *parser) parsePlacement() (Placement, error) {
	p.advance() // place
	var pl Placement
	switch {
	case p.accept(tokAll):
		pl.Quant = QAll
	case p.accept(tokAny):
		pl.Quant = QAny
	default:
		return Placement{}, p.errHere("expected all or any after place, found %s", p.cur())
	}
	if p.accept(tokSemicolon) {
		return pl, nil // case (a): all switches
	}
	// Optional anchor.
	switch p.cur().Kind {
	case tokSender:
		pl.Anchor = "sender"
		p.advance()
	case tokReceiver:
		pl.Anchor = "receiver"
		p.advance()
	case tokMidpoint:
		pl.Anchor = "midpoint"
		p.advance()
	}
	if pl.Anchor != "" {
		// Range form: [ex] range op ex.
		if p.cur().Kind != tokRange {
			ex, err := p.parseExpr()
			if err != nil {
				return Placement{}, err
			}
			pl.PathExpr = ex
		}
		if err := p.parseRangeClause(&pl); err != nil {
			return Placement{}, err
		}
	} else {
		// Either explicit switch list (case b) or anchorless range form.
		var exprs []Expr
		for p.cur().Kind != tokSemicolon && p.cur().Kind != tokRange {
			ex, err := p.parseExpr()
			if err != nil {
				return Placement{}, err
			}
			exprs = append(exprs, ex)
			if !p.accept(tokComma) {
				break
			}
		}
		if p.cur().Kind == tokRange {
			if len(exprs) > 1 {
				return Placement{}, p.errHere("range placement takes at most one path expression")
			}
			if len(exprs) == 1 {
				pl.PathExpr = exprs[0]
			}
			if err := p.parseRangeClause(&pl); err != nil {
				return Placement{}, err
			}
		} else {
			pl.Switches = exprs
		}
	}
	if _, err := p.expect(tokSemicolon, ";"); err != nil {
		return Placement{}, err
	}
	return pl, nil
}

func (p *parser) parseRangeClause(pl *Placement) error {
	if _, err := p.expect(tokRange, "range"); err != nil {
		return err
	}
	pl.HasRange = true
	switch p.cur().Kind {
	case tokEq:
		pl.RangeOp = "=="
	case tokLe:
		pl.RangeOp = "<="
	case tokGe:
		pl.RangeOp = ">="
	case tokLt:
		pl.RangeOp = "<"
	case tokGt:
		pl.RangeOp = ">"
	default:
		return p.errHere("expected range comparison operator, found %s", p.cur())
	}
	p.advance()
	bound, err := p.parseExpr()
	if err != nil {
		return err
	}
	pl.RangeBound = bound
	return nil
}

func (p *parser) parseStateDecl() (StateDecl, error) {
	start := p.advance() // state
	name, err := p.expect(tokIdent, "state name")
	if err != nil {
		return StateDecl{}, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return StateDecl{}, err
	}
	st := StateDecl{Name: name.Text, DeclLine: start.Line}
	for p.cur().Kind != tokRBrace {
		switch p.cur().Kind {
		case tokUtil:
			ut, err := p.parseUtilDecl()
			if err != nil {
				return StateDecl{}, err
			}
			if st.Util != nil {
				return StateDecl{}, errAt(ut.DeclLine, 1, "state %s declares util twice", st.Name)
			}
			st.Util = &ut
		case tokWhen:
			ev, err := p.parseEventDecl()
			if err != nil {
				return StateDecl{}, err
			}
			st.Events = append(st.Events, ev)
		default:
			vd, err := p.parseVarDecl()
			if err != nil {
				return StateDecl{}, err
			}
			if vd.External {
				return StateDecl{}, errAt(vd.DeclLine, 1, "external is disallowed on state-local variables")
			}
			st.Vars = append(st.Vars, vd)
		}
	}
	p.advance() // }
	return st, nil
}

func (p *parser) parseUtilDecl() (UtilDecl, error) {
	start := p.advance() // util
	if _, err := p.expect(tokLParen, "("); err != nil {
		return UtilDecl{}, err
	}
	param, err := p.expect(tokIdent, "util parameter name")
	if err != nil {
		return UtilDecl{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return UtilDecl{}, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return UtilDecl{}, err
	}
	return UtilDecl{Param: param.Text, Body: body, DeclLine: start.Line}, nil
}

func (p *parser) parseEventDecl() (EventDecl, error) {
	start := p.advance() // when
	if _, err := p.expect(tokLParen, "("); err != nil {
		return EventDecl{}, err
	}
	trg, err := p.parseTrigger()
	if err != nil {
		return EventDecl{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return EventDecl{}, err
	}
	if _, err := p.expect(tokDo, "do"); err != nil {
		return EventDecl{}, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return EventDecl{}, err
	}
	return EventDecl{Trigger: trg, Body: body, DeclLine: start.Line}, nil
}

func (p *parser) parseTrigger() (EventTrigger, error) {
	switch p.cur().Kind {
	case tokEnter:
		p.advance()
		return EventTrigger{Kind: TrigOnEnter}, nil
	case tokExit:
		p.advance()
		return EventTrigger{Kind: TrigOnExit}, nil
	case tokRealloc:
		p.advance()
		return EventTrigger{Kind: TrigOnRealloc}, nil
	case tokRecv:
		p.advance()
		trg := EventTrigger{Kind: TrigOnRecv}
		// Optional type before the pattern variable.
		if isTypeToken(p.cur().Kind) || (p.cur().Kind == tokIdent && p.peek().Kind == tokIdent) {
			typ, typName, err := p.parseType()
			if err != nil {
				return EventTrigger{}, err
			}
			trg.RecvType, trg.RecvTypeName = typ, typName
		}
		v, err := p.expect(tokIdent, "message variable name")
		if err != nil {
			return EventTrigger{}, err
		}
		trg.RecvVar = v.Text
		if _, err := p.expect(tokFrom, "from"); err != nil {
			return EventTrigger{}, err
		}
		if p.accept(tokHarvester) {
			trg.FromHarvester = true
		} else {
			m, err := p.expect(tokIdent, "machine name or harvester")
			if err != nil {
				return EventTrigger{}, err
			}
			trg.FromMachine = m.Text
			if p.accept(tokAt) {
				dst, err := p.parseExpr()
				if err != nil {
					return EventTrigger{}, err
				}
				trg.FromDst = dst
			}
		}
		return trg, nil
	case tokIdent:
		name := p.advance()
		trg := EventTrigger{Kind: TrigOnVar, VarName: name.Text}
		if p.accept(tokAs) {
			as, err := p.expect(tokIdent, "binding name after as")
			if err != nil {
				return EventTrigger{}, err
			}
			trg.AsName = as.Text
		}
		return trg, nil
	}
	return EventTrigger{}, p.errHere("expected event trigger, found %s", p.cur())
}

// --- Statements ---

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.cur().Kind != tokRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance() // }
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.cur().Line
	switch p.cur().Kind {
	case tokIf:
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokThen, "then"); err != nil {
			return nil, err
		}
		thenB, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		stmt := &IfStmt{stmtBase: stmtBase{line}, Cond: cond, Then: thenB}
		if p.accept(tokElse) {
			if p.cur().Kind == tokIf {
				// else-if chains nest.
				nested, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				stmt.Else = []Stmt{nested}
			} else {
				elseB, err := p.parseBlock()
				if err != nil {
					return nil, err
				}
				stmt.Else = elseB
			}
		}
		return stmt, nil

	case tokWhile:
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: stmtBase{line}, Cond: cond, Body: body}, nil

	case tokReturn:
		p.advance()
		stmt := &ReturnStmt{stmtBase: stmtBase{line}}
		if p.cur().Kind != tokSemicolon {
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Val = val
		}
		if _, err := p.expect(tokSemicolon, ";"); err != nil {
			return nil, err
		}
		return stmt, nil

	case tokTransit:
		p.advance()
		st, err := p.expect(tokIdent, "state name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon, ";"); err != nil {
			return nil, err
		}
		return &TransitStmt{stmtBase: stmtBase{line}, State: st.Text}, nil

	case tokSend:
		p.advance()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokTo, "to"); err != nil {
			return nil, err
		}
		stmt := &SendStmt{stmtBase: stmtBase{line}, Val: val}
		if p.accept(tokHarvester) {
			stmt.To.Harvester = true
		} else {
			m, err := p.expect(tokIdent, "machine name or harvester")
			if err != nil {
				return nil, err
			}
			stmt.To.Machine = m.Text
			if p.accept(tokAt) {
				dst, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				stmt.To.Dst = dst
			}
		}
		if _, err := p.expect(tokSemicolon, ";"); err != nil {
			return nil, err
		}
		return stmt, nil
	}

	// Local declaration: type keyword (or struct name followed by ident).
	if isTypeToken(p.cur().Kind) || (p.cur().Kind == tokIdent && p.peek().Kind == tokIdent) {
		vd, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		return &DeclStmt{stmtBase: stmtBase{line}, Var: vd}, nil
	}

	// Assignment or expression statement.
	if p.cur().Kind == tokIdent {
		name := p.cur().Text
		switch p.peek().Kind {
		case tokAssign:
			p.advance()
			p.advance()
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemicolon, ";"); err != nil {
				return nil, err
			}
			return &AssignStmt{stmtBase: stmtBase{line}, Target: name, Val: val}, nil
		case tokDot:
			// Possibly x.field = e;
			save := p.pos
			p.advance() // ident
			p.advance() // dot
			fld, err := p.expectFieldName()
			if err != nil {
				return nil, err
			}
			if p.accept(tokAssign) {
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSemicolon, ";"); err != nil {
					return nil, err
				}
				return &AssignStmt{stmtBase: stmtBase{line}, Target: name, Field: fld.Text, Val: val}, nil
			}
			p.pos = save // not an assignment: reparse as expression
		}
	}
	ex, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemicolon, ";"); err != nil {
		return nil, err
	}
	return &ExprStmt{stmtBase: stmtBase{line}, X: ex}, nil
}

// --- Expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == tokOr {
		line := p.advance().Line
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{exprBase: exprBase{line}, Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == tokAnd {
		line := p.advance().Line
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{exprBase: exprBase{line}, Op: "and", L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[TokenKind]string{
	tokEq: "==", tokNeq: "<>", tokLe: "<=", tokGe: ">=", tokLt: "<", tokGt: ">",
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().Kind]; ok {
		line := p.advance().Line
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{exprBase: exprBase{line}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == tokPlus || p.cur().Kind == tokMinus {
		op := "+"
		if p.cur().Kind == tokMinus {
			op = "-"
		}
		line := p.advance().Line
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{exprBase: exprBase{line}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == tokStar || p.cur().Kind == tokSlash {
		op := "*"
		if p.cur().Kind == tokSlash {
			op = "/"
		}
		line := p.advance().Line
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{exprBase: exprBase{line}, Op: op, L: l, R: r}
	}
	return l, nil
}

var filterFieldTokens = map[TokenKind]string{
	tokSrcIP: "srcIP", tokDstIP: "dstIP",
	tokSrcPort: "srcPort", tokDstPort: "dstPort",
	tokPort: "port", tokProto: "proto",
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case tokNot:
		line := p.advance().Line
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{line}, Op: "not", X: x}, nil
	case tokMinus:
		line := p.advance().Line
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprBase: exprBase{line}, Op: "-", X: x}, nil
	}
	if field, ok := filterFieldTokens[p.cur().Kind]; ok {
		line := p.advance().Line
		if p.cur().Kind == tokAnyCap {
			p.advance()
			return &FilterAtom{exprBase: exprBase{line}, Field: field, Any: true}, nil
		}
		arg, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		return &FilterAtom{exprBase: exprBase{line}, Field: field, Arg: arg}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == tokDot {
		line := p.advance().Line
		fld, err := p.expectFieldName()
		if err != nil {
			return nil, err
		}
		x = &FieldExpr{exprBase: exprBase{line}, X: x, Field: fld.Text}
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad integer literal %q", t.Text)
		}
		return &IntLit{exprBase: exprBase{t.Line}, Val: v}, nil
	case tokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad float literal %q", t.Text)
		}
		return &FloatLit{exprBase: exprBase{t.Line}, Val: v}, nil
	case tokString:
		p.advance()
		return &StringLit{exprBase: exprBase{t.Line}, Val: t.Text}, nil
	case tokTrue:
		p.advance()
		return &BoolLit{exprBase: exprBase{t.Line}, Val: true}, nil
	case tokFalse:
		p.advance()
		return &BoolLit{exprBase: exprBase{t.Line}, Val: false}, nil
	case tokLParen:
		p.advance()
		ex, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return ex, nil
	case tokLBracket:
		p.advance()
		lit := &ListLit{exprBase: exprBase{t.Line}}
		for p.cur().Kind != tokRBracket {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lit.Elems = append(lit.Elems, e)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return nil, err
		}
		return lit, nil
	case tokIdent:
		p.advance()
		switch p.cur().Kind {
		case tokLParen:
			p.advance()
			call := &CallExpr{exprBase: exprBase{t.Line}, Name: t.Text}
			for p.cur().Kind != tokRParen {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return call, nil
		case tokLBrace:
			p.advance()
			lit := &StructLit{exprBase: exprBase{t.Line}, TypeName: t.Text}
			for p.cur().Kind != tokRBrace {
				if _, err := p.expect(tokDot, "."); err != nil {
					return nil, err
				}
				fname, err := p.expectFieldName()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokAssign, "="); err != nil {
					return nil, err
				}
				val, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				lit.Fields = append(lit.Fields, FieldInit{Name: fname.Text, Val: val})
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRBrace, "}"); err != nil {
				return nil, err
			}
			return lit, nil
		}
		return &Ident{exprBase: exprBase{t.Line}, Name: t.Text}, nil
	}
	return nil, errAt(t.Line, t.Col, "expected expression, found %s", t)
}
