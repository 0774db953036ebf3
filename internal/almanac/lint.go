package almanac

import "fmt"

// Lint reports likely deployment problems that are legal Almanac but
// almost certainly bugs. It checks one: the machine calls addTCAMRule
// somewhere, but no utility case in any state constrains res.TCAM — the
// optimizer will allocate zero TCAM entries and every installation will
// fail at runtime.
//
// The seeder surfaces these as warnings at task admission; farmctl
// analyze prints them.
func Lint(cm *CompiledMachine) []string {
	var warnings []string

	if machineInstallsRules(cm) && !anyUtilDemands(cm, "TCAM") {
		warnings = append(warnings, fmt.Sprintf(
			"machine %s installs TCAM rules but no util constrains res.TCAM; its seeds will be allocated zero entries and addTCAMRule will fail",
			cm.Name))
	}
	return warnings
}

// machineInstallsRules reports whether any event body or program
// function reachable from the machine calls addTCAMRule.
func machineInstallsRules(cm *CompiledMachine) bool {
	found := false
	visit := func(e Expr) {
		if call, ok := e.(*CallExpr); ok && call.Name == "addTCAMRule" {
			found = true
		}
	}
	for _, st := range cm.States {
		for _, ev := range st.Events {
			walkStmts(ev.Body, visit)
		}
	}
	for _, f := range cm.Funcs {
		walkStmts(f.Body, visit)
	}
	return found
}

// anyUtilDemands reports whether any state's utility constrains the
// named resource.
func anyUtilDemands(cm *CompiledMachine, resource string) bool {
	for _, st := range cm.States {
		if st.Util == nil {
			continue
		}
		found := false
		var check func(Expr)
		check = func(e Expr) {
			if fe, ok := e.(*FieldExpr); ok && fe.Field == resource {
				found = true
			}
		}
		walkStmts(st.Util.Body, check)
		if found {
			return true
		}
	}
	return false
}

// walkStmts visits every expression in a statement tree.
func walkStmts(stmts []Stmt, visit func(Expr)) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *AssignStmt:
			walkExpr(st.Val, visit)
		case *DeclStmt:
			if st.Var.Init != nil {
				walkExpr(st.Var.Init, visit)
			}
		case *IfStmt:
			walkExpr(st.Cond, visit)
			walkStmts(st.Then, visit)
			walkStmts(st.Else, visit)
		case *WhileStmt:
			walkExpr(st.Cond, visit)
			walkStmts(st.Body, visit)
		case *ReturnStmt:
			if st.Val != nil {
				walkExpr(st.Val, visit)
			}
		case *SendStmt:
			walkExpr(st.Val, visit)
			if st.To.Dst != nil {
				walkExpr(st.To.Dst, visit)
			}
		case *ExprStmt:
			walkExpr(st.X, visit)
		}
	}
}

// walkExpr visits e and every subexpression.
func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch ex := e.(type) {
	case *FieldExpr:
		walkExpr(ex.X, visit)
	case *CallExpr:
		for _, a := range ex.Args {
			walkExpr(a, visit)
		}
	case *UnaryExpr:
		walkExpr(ex.X, visit)
	case *BinaryExpr:
		walkExpr(ex.L, visit)
		walkExpr(ex.R, visit)
	case *FilterAtom:
		walkExpr(ex.Arg, visit)
	case *StructLit:
		for _, f := range ex.Fields {
			walkExpr(f.Val, visit)
		}
	case *ListLit:
		for _, el := range ex.Elems {
			walkExpr(el, visit)
		}
	}
}
