package almanac

import "sort"

// Private map variables. A map is a reference, so `x = map_new()` must
// in general build a new map: some other name may still hold the old
// one. When no other name can, emptying the old map in place is the
// same program, and it keeps the slot array, the index and the key list
// map_keys last handed out (RMapReset). A machine or state variable x is
// private when
//
//   - every machine or state variable of that name is declared as a
//     map, not external, with no initialiser or `map_new()`;
//   - every read of it is the first argument of map_get, map_has,
//     map_len or map_keys (none of which returns the map), the first
//     argument of map_set or map_del in a statement that drops the
//     result or stores it back into x, or the operand of send (which
//     deep-copies a map);
//   - every write is `x = map_new()`, `x = map_set(x, …)` or
//     `x = map_del(x, …)`.
//
// Uses are matched by name. Two states may each declare an x; each has
// its own slot, and the first rule holds for both or strikes both. Sema
// lets no name in scope be declared again, so a use of x in a handler
// that sees a variable x is a use of that variable. A local or binding
// named x in a handler that sees none is a register, which is never
// reset in place; its uses can only strike x, never keep it. Functions
// are not looked at: a function sees only its parameters and its
// locals, so it cannot name x. Then the only reference to x's map is
// x's slot: nothing the program computes can be that map. Outside the
// program, send, recv bindings, snapshots, restores and Var all copy a
// map.

// mapReaders never return the map that is their first argument;
// mapWriters always do.
var (
	mapReaders = map[string]bool{"map_get": true, "map_has": true, "map_len": true, "map_keys": true}
	mapWriters = map[string]bool{"map_set": true, "map_del": true}
)

// privateMaps returns the names of cm's private map variables.
func privateMaps(cm *CompiledMachine, builtin map[string]bool) map[string]bool {
	w := &escapeWalk{cand: map[string]bool{}, builtin: builtin}
	shared := map[string]bool{}
	consider := func(v *VarDecl) {
		if v.Type == TMap && !v.External && (v.Init == nil || isMapNew(v.Init, w.builtin)) {
			w.cand[v.Name] = true
		} else {
			shared[v.Name] = true
		}
	}
	for i := range cm.Vars {
		consider(&cm.Vars[i])
	}
	for si := range cm.States {
		for i := range cm.States[si].Vars {
			consider(&cm.States[si].Vars[i])
		}
	}
	for n := range shared {
		delete(w.cand, n)
	}
	if len(w.cand) == 0 {
		return nil
	}
	walkInits := func(vars []VarDecl) {
		for i := range vars {
			if v := &vars[i]; v.Init != nil && !isMapNew(v.Init, w.builtin) {
				w.expr(v.Init)
			}
		}
	}
	walkInits(cm.Vars)
	for si := range cm.States {
		st := &cm.States[si]
		walkInits(st.Vars)
		for ei := range st.Events {
			w.stmts(st.Events[ei].Body)
		}
	}
	return w.cand
}

// sortedNames lists a name set in order.
func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// escapeWalk strikes from cand every name used in a way that could let
// its map reach another name.
type escapeWalk struct {
	cand    map[string]bool
	builtin map[string]bool
}

// isMapNew reports whether e is exactly `map_new()`, the builtin.
func isMapNew(e Expr, builtin map[string]bool) bool {
	c, ok := e.(*CallExpr)
	return ok && c.Name == "map_new" && len(c.Args) == 0 && builtin[c.Name]
}

// writesBack reports whether c is map_set/map_del whose first argument
// is the variable name: the call returns that variable's map.
func (w *escapeWalk) writesBack(e Expr, name string) bool {
	c, ok := e.(*CallExpr)
	if !ok || !mapWriters[c.Name] || !w.builtin[c.Name] || len(c.Args) == 0 {
		return false
	}
	id, ok := c.Args[0].(*Ident)
	return ok && id.Name == name
}

func (w *escapeWalk) stmts(body []Stmt) {
	for _, stmt := range body {
		switch st := stmt.(type) {
		case *AssignStmt:
			if st.Field == "" {
				if isMapNew(st.Val, w.builtin) {
					continue
				}
				if w.writesBack(st.Val, st.Target) {
					w.exprs(st.Val.(*CallExpr).Args[1:])
					continue
				}
			}
			delete(w.cand, st.Target)
			w.expr(st.Val)
		case *DeclStmt:
			w.expr(st.Var.Init)
		case *ExprStmt:
			if c, ok := st.X.(*CallExpr); ok && len(c.Args) > 0 {
				if id, ok := c.Args[0].(*Ident); ok && w.writesBack(c, id.Name) {
					w.exprs(c.Args[1:])
					continue
				}
			}
			w.expr(st.X)
		case *SendStmt:
			if _, ok := st.Val.(*Ident); !ok {
				w.expr(st.Val)
			}
			w.expr(st.To.Dst)
		case *IfStmt:
			w.expr(st.Cond)
			w.stmts(st.Then)
			w.stmts(st.Else)
		case *WhileStmt:
			w.expr(st.Cond)
			w.stmts(st.Body)
		case *ReturnStmt:
			w.expr(st.Val)
		}
	}
}

func (w *escapeWalk) exprs(es []Expr) {
	for _, e := range es {
		w.expr(e)
	}
}

func (w *escapeWalk) expr(e Expr) {
	switch ex := e.(type) {
	case *Ident:
		delete(w.cand, ex.Name)
	case *CallExpr:
		args := ex.Args
		if len(args) > 0 && mapReaders[ex.Name] && w.builtin[ex.Name] {
			if _, ok := args[0].(*Ident); ok {
				args = args[1:]
			}
		}
		w.exprs(args)
	case *FieldExpr:
		w.expr(ex.X)
	case *UnaryExpr:
		w.expr(ex.X)
	case *BinaryExpr:
		w.expr(ex.L)
		w.expr(ex.R)
	case *FilterAtom:
		w.expr(ex.Arg)
	case *StructLit:
		for _, f := range ex.Fields {
			w.expr(f.Val)
		}
	case *ListLit:
		w.exprs(ex.Elems)
	}
}
