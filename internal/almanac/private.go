package almanac

import "sort"

// Private map variables. A map is a reference, so `x = map_new()` must
// in general build a new map: some other name may still hold the old
// one. When no other name can, emptying the old map in place is the
// same program, and it keeps the slot array, the index and the key list
// map_keys last handed out (RMapReset). A machine or state variable x is
// private when
//
//   - it is declared once, as a map, not external, with no initialiser
//     or `map_new()`, and no state variable, trigger, handler binding,
//     parameter or local shares its name;
//   - every read of it is the first argument of map_get, map_has,
//     map_len or map_keys (none of which returns the map), the first
//     argument of map_set or map_del in a statement that drops the
//     result or stores it back into x, or the operand of send (which
//     deep-copies a map);
//   - every write is `x = map_new()`, `x = map_set(x, …)` or
//     `x = map_del(x, …)`;
//   - no auxiliary function mentions the name (functions resolve names
//     at run time, in whatever state calls them).
//
// Then the only reference to x's map is x's slot: nothing the program
// computes can be that map. Outside the program, send, recv bindings,
// snapshots, restores and Var all copy a map.

// mapReaders never return the map that is their first argument;
// mapWriters always do.
var (
	mapReaders = map[string]bool{"map_get": true, "map_has": true, "map_len": true, "map_keys": true}
	mapWriters = map[string]bool{"map_set": true, "map_del": true}
)

// privateMaps returns the names of cm's private map variables.
func privateMaps(cm *CompiledMachine, builtin map[string]bool) map[string]bool {
	w := &escapeWalk{cand: map[string]bool{}, builtin: builtin}
	decls := map[string]int{}
	consider := func(v *VarDecl) {
		decls[v.Name]++
		if v.Type == TMap && !v.External && (v.Init == nil || isMapNew(v.Init, w.builtin)) {
			w.cand[v.Name] = true
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
	for n := range w.cand {
		if decls[n] > 1 {
			delete(w.cand, n)
		}
	}
	for _, t := range cm.Triggers {
		delete(w.cand, t.Name)
	}
	if len(w.cand) == 0 {
		return nil
	}
	for i := range cm.Funcs {
		fd := &cm.Funcs[i]
		for _, p := range fd.Params {
			delete(w.cand, p.Name)
		}
		w.mentions = true
		w.stmts(fd.Body)
		w.mentions = false
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
			ev := &st.Events[ei]
			delete(w.cand, ev.Trigger.AsName)
			delete(w.cand, ev.Trigger.RecvVar)
			w.expr(ev.Trigger.FromDst)
			w.stmts(ev.Body)
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
// its map reach another name. In mentions mode (function bodies) any use
// at all strikes the name.
type escapeWalk struct {
	cand     map[string]bool
	builtin  map[string]bool
	mentions bool
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
			if !w.mentions && st.Field == "" {
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
			delete(w.cand, st.Var.Name)
			w.expr(st.Var.Init)
		case *ExprStmt:
			if c, ok := st.X.(*CallExpr); ok && !w.mentions && len(c.Args) > 0 {
				if id, ok := c.Args[0].(*Ident); ok && w.writesBack(c, id.Name) {
					w.exprs(c.Args[1:])
					continue
				}
			}
			w.expr(st.X)
		case *SendStmt:
			if _, ok := st.Val.(*Ident); !ok || w.mentions {
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
		if len(args) > 0 && !w.mentions && mapReaders[ex.Name] && w.builtin[ex.Name] {
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
