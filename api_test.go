package farm_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyExempt names the exported internal/ identifiers that may keep
// test-only users, each with the reason it stays exported.
var testOnlyExempt = map[string]string{
	"traffic.BulkWorkload.HeavyPorts": "the ground truth a heavy-hitter scorer is graded against: " +
		"the generator's own record of which ports it made heavy, read by the tests that check detection",
	"core.MapVal.Set": "builds a map value from Go, as the seeder's externals tests need; " +
		"the program builds maps only through the map builtins",
	"poly.Utility.Eval": "evaluates a utility at a resource assignment: the almanac tests' oracle " +
		"for the utilities analysis derives",
	"poly.Linear.Equal": "compares two rates within a tolerance: the almanac tests' oracle " +
		"for the rates analysis derives and the XML round trip keeps",
}

// TestNoTestOnlyExports holds each internal/ package's API to what the
// program uses. An exported top-level identifier, or an exported method
// of an exported type, declared in a non-test file under internal/ and
// used by a test must also be used by a non-test file of internal/,
// cmd/, examples/ or bench/ (bench/ compiles against this API); a use
// in its own file counts, its declaration does not. An
// identifier only tests use goes, or moves into the test files that use
// it (export_test.go when an external test needs it).
//
// Uses are resolved by type-checking the tree from source, each package
// once as the program builds it and once with its test files, so a
// method is told apart from its namesakes on other types. A method the
// program calls through an interface its type satisfies, or that fmt
// calls on a value it prints (String, Error), counts as used.
func TestNoTestOnlyExports(t *testing.T) {
	tr := loadTree(t, ".", "internal", "cmd", "examples", "bench")

	type decl struct {
		key, pos string
		obj      types.Object
	}
	var decls []decl
	add := func(obj types.Object) {
		if k := objKey(obj); obj.Exported() && k != "" {
			decls = append(decls, decl{k, tr.fset.Position(obj.Pos()).String(), obj})
		}
	}
	for _, p := range tr.pkgs {
		if len(p.files) == 0 {
			continue
		}
		scope := tr.check(t, p.path).Scope()
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			add(obj)
			if tn, ok := obj.(*types.TypeName); ok && obj.Exported() && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						add(n.Method(i))
					}
				}
			}
		}
	}
	for _, p := range tr.pkgs {
		tr.checkTests(t, p)
	}

	// usedThrough reports whether the program calls d, a method, through
	// an interface d's type satisfies.
	usedThrough := func(d decl) bool {
		fn, ok := d.obj.(*types.Func)
		if !ok {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, iface := range tr.ifaceCalls[fn.Name()] {
			if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
				return true
			}
		}
		return false
	}
	var testOnly []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if tr.used[d.key] || usedThrough(d) {
			if _, ok := testOnlyExempt[d.key]; ok {
				t.Errorf("%s: exempt from this check, but the program now uses it: drop its exemption", d.key)
			}
			continue
		}
		if _, ok := testOnlyExempt[d.key]; ok || !tr.testUsed[d.key] {
			continue
		}
		testOnly = append(testOnly, d.pos+": "+d.key)
	}
	for key := range testOnlyExempt {
		if !seen[key] {
			t.Errorf("%s: exempt from this check, but no longer declared: drop its exemption", key)
		}
	}
	sort.Strings(testOnly)
	for _, u := range testOnly {
		t.Errorf("%s is exported, but only tests use it: delete it, or move it into the tests", u)
	}
}

// TestNoWriteOnlyFields holds each internal/ package's unexported
// struct fields to what the program reads: a field a non-test file
// writes must also be read by a non-test file. A write is the whole
// left side of an assignment or an increment, or a field's place in a
// composite literal; any other use of the field is a read, and so is a
// comparison of its struct, or its struct's use as a map key. A counter
// only tests look at shows up here as written and never read. An
// embedded field is left out: promotion reads it with no name at the
// use.
func TestNoWriteOnlyFields(t *testing.T) {
	tr := loadTree(t, "internal")
	for _, p := range tr.pkgs {
		if len(p.files) > 0 {
			tr.check(t, p.path)
		}
	}
	var unread []string
	for v := range tr.fieldWritten {
		if !tr.fieldRead[v] && !v.Exported() && !v.Embedded() {
			unread = append(unread, tr.fset.Position(v.Pos()).String()+": "+v.Name())
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is written but never read: delete it, or read it", u)
	}
}

// TestNoUnsetFields holds each internal/ package's exported struct
// fields to what the program sets: a field a non-test file reads must
// also be set by a non-test file of internal/, cmd/, examples/ or
// bench/, or it only ever holds its zero value. A write (see
// TestNoWriteOnlyFields) sets a field, and so does an assignment to an
// element of an array-typed field. The fields of a struct type with
// json or xml tags are left out: a decoder sets them.
func TestNoUnsetFields(t *testing.T) {
	tr := loadTree(t, "internal", "cmd", "examples", "bench")
	for _, p := range tr.pkgs {
		if len(p.files) > 0 {
			tr.check(t, p.path)
		}
	}
	var unset []string
	for v := range tr.fieldRead {
		if !v.Exported() || v.Embedded() || tr.fieldWritten[v] || tr.fieldSet[v] || tr.tagged[v] ||
			!strings.HasPrefix(v.Pkg().Path(), "farm/internal/") {
			continue
		}
		unset = append(unset, tr.fset.Position(v.Pos()).String()+": "+fieldKey(tr, v))
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is read but never set: delete it, or set it", u)
	}
}

// unreadExempt names the exported internal/ struct fields that the
// program may write without reading, each with the reason it stays.
var unreadExempt = map[string]string{
	"fleet.hbMsg.Term": "heartbeats carry the leader's term, which no follower checks yet: " +
		"the term fence the fleet's failover still lacks",
	"seeder.Options.PlacementParallel": "bench/e2e sets it when it builds a seeder, and bench/ keeps " +
		"compiling against it; placement runs serially",
	"traffic.PortLoad.Switch": "with BytesPerSec, the generator's record of each port it loads: " +
		"the ground truth a heavy-hitter scorer is graded against",
	"traffic.PortLoad.BytesPerSec": "with Switch, the generator's record of each port it loads: " +
		"the ground truth a heavy-hitter scorer is graded against",
	"almanac.Lowered.Private": "the maps lowering found private, the oracle of almanac.TestPrivateMaps " +
		"and core.FuzzMapReuse; core's fuzz target cannot reach an almanac export_test.go",
}

// TestNoUnreadFields holds each internal/ package's exported struct
// fields to what the program reads: a field a non-test file writes (see
// TestNoWriteOnlyFields) must also be read by a non-test file of
// internal/, cmd/, examples/ or bench/. The fields of a struct type with
// json or xml tags are left out: an encoder reads them. An exempt field
// the program now reads, or that is gone, fails too.
func TestNoUnreadFields(t *testing.T) {
	tr := loadTree(t, "internal", "cmd", "examples", "bench")
	for _, p := range tr.pkgs {
		if len(p.files) > 0 {
			tr.check(t, p.path)
		}
	}
	declared := map[string]bool{}
	for v := range tr.fieldOwner {
		declared[fieldKey(tr, v)] = true
	}
	for key := range unreadExempt {
		if !declared[key] {
			t.Errorf("%s: exempt from this check, but no longer declared: drop its exemption", key)
		}
	}
	var unread []string
	for v := range tr.fieldWritten {
		if !v.Exported() || v.Embedded() || tr.tagged[v] || !strings.HasPrefix(v.Pkg().Path(), "farm/internal/") {
			continue
		}
		key := fieldKey(tr, v)
		_, exempt := unreadExempt[key]
		switch {
		case tr.fieldRead[v] && exempt:
			t.Errorf("%s: exempt from this check, but the program now reads it: drop its exemption", key)
		case !tr.fieldRead[v] && !exempt:
			unread = append(unread, tr.fset.Position(v.Pos()).String()+": "+key)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is written but never read: delete it, or read it", u)
	}
}

// TestNoUnusedFields holds each internal/ package's struct fields to
// the program: a field declared in a non-test file under internal/
// must be used — written, read or set (see TestNoWriteOnlyFields and
// TestNoUnsetFields) — by a non-test file of internal/, cmd/,
// examples/ or bench/. A field nothing uses is dead weight in every
// value of its struct. Embedded fields, blank fields and the fields of
// json- or xml-tagged struct types are left out.
func TestNoUnusedFields(t *testing.T) {
	tr := loadTree(t, "internal", "cmd", "examples", "bench")
	for _, p := range tr.pkgs {
		if len(p.files) > 0 {
			tr.check(t, p.path)
		}
	}
	var unused []string
	for v := range tr.fieldDeclared {
		if v.Embedded() || v.Name() == "_" || tr.tagged[v] || tr.fieldWritten[v] || tr.fieldRead[v] || tr.fieldSet[v] {
			continue
		}
		unused = append(unused, tr.fset.Position(v.Pos()).String()+": "+fieldKey(tr, v))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is declared but never used: delete it", u)
	}
}

// fieldKey names a struct field as "pkg.Type.Field" after the declared
// type it belongs to, or "Field" for a field of an unnamed struct.
func fieldKey(tr *tree, v *types.Var) string {
	if owner := tr.fieldOwner[v]; owner != "" {
		return owner + "." + v.Name()
	}
	return v.Name()
}

// srcPkg is one directory's package: its non-test files, its in-package
// test files and its external (_test package) test files.
type srcPkg struct {
	path, dir            string
	files, tests, xtests []*ast.File
}

// tree type-checks the module's packages from source and records what
// their files use, keyed by objKey.
type tree struct {
	fset    *token.FileSet
	pkgs    []*srcPkg // in directory order
	byPath  map[string]*srcPkg
	checked map[string]*types.Package // non-test packages, as the program builds them
	std     types.Importer

	used       map[string]bool               // by a non-test file
	testUsed   map[string]bool               // by a test file
	ifaceCalls map[string][]*types.Interface // interface methods non-test files call, by name

	// fieldWritten and fieldRead hold the struct fields non-test files
	// write and read (see TestNoWriteOnlyFields); fieldSet holds the
	// ones they set otherwise (see TestNoUnsetFields).
	fieldWritten, fieldRead, fieldSet map[*types.Var]bool
	// tagged holds the fields of struct types with json or xml tags,
	// which a decoder sets and an encoder reads.
	tagged map[*types.Var]bool
	// fieldOwner names the declared struct type each field belongs to,
	// for the field guards' output.
	fieldOwner map[*types.Var]string
	// fieldDeclared holds the fields of the struct types that non-test
	// files under internal/ declare.
	fieldDeclared map[*types.Var]bool
}

// loadTree parses every .go file under roots that the default build
// context selects (so a //go:build race file is left out), skipping
// testdata, with comments dropped. The root "." stands for the module
// root's own files only.
func loadTree(t *testing.T, roots ...string) *tree {
	t.Helper()
	tr := &tree{
		fset:       token.NewFileSet(),
		byPath:     map[string]*srcPkg{},
		checked:    map[string]*types.Package{},
		std:        importer.Default(),
		used:       map[string]bool{},
		testUsed:   map[string]bool{},
		ifaceCalls: map[string][]*types.Interface{},

		fieldWritten:  map[*types.Var]bool{},
		fieldRead:     map[*types.Var]bool{},
		fieldSet:      map[*types.Var]bool{},
		tagged:        map[*types.Var]bool{},
		fieldOwner:    map[*types.Var]string{},
		fieldDeclared: map[*types.Var]bool{},
	}
	// fmt calls String and Error on the values it prints.
	fmtPkg, err := tr.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	for _, iface := range []types.Object{fmtPkg.Scope().Lookup("Stringer"), types.Universe.Lookup("error")} {
		i := iface.Type().Underlying().(*types.Interface)
		tr.ifaceCalls[i.Method(0).Name()] = []*types.Interface{i}
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if e.Name() == "testdata" || (root == "." && path != ".") {
					return filepath.SkipDir
				}
				return nil
			}
			dir, name := filepath.Split(path)
			if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(tr.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir = filepath.ToSlash(filepath.Clean(dir))
			importPath := "farm"
			if dir != "." {
				importPath += "/" + dir
			}
			p := tr.byPath[importPath]
			if p == nil {
				p = &srcPkg{path: importPath, dir: dir}
				tr.byPath[importPath] = p
				tr.pkgs = append(tr.pkgs, p)
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// check returns the non-test package at path, type-checking it and the
// module packages it imports first, and records its files' uses.
func (tr *tree) check(t *testing.T, path string) *types.Package {
	if p := tr.checked[path]; p != nil {
		return p
	}
	p := tr.byPath[path]
	pkg := tr.typeCheck(t, path, p.files, nil, true)
	tr.checked[path] = pkg
	return pkg
}

// checkTests type-checks p with its in-package test files, then its
// external test files against that, and records the test files' uses.
func (tr *tree) checkTests(t *testing.T, p *srcPkg) {
	if len(p.tests)+len(p.xtests) == 0 {
		return
	}
	internal := tr.typeCheck(t, p.path, append(append([]*ast.File(nil), p.files...), p.tests...), nil, false)
	if len(p.xtests) > 0 {
		tr.typeCheck(t, p.path+"_test", p.xtests, map[string]*types.Package{p.path: internal}, false)
	}
}

// typeCheck checks files as the package path, resolving module imports
// to the non-test packages unless over names another, and records the
// uses in non-test files (when prod) or in test files. A package
// checked with its test files may not type-check exactly, as a module
// package it imports was built without them; its uses are still
// resolved.
func (tr *tree) typeCheck(t *testing.T, path string, files []*ast.File, over map[string]*types.Package, prod bool) *types.Package {
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if p := over[imp]; p != nil {
				return p, nil
			}
			if tr.byPath[imp] != nil {
				return tr.check(t, imp), nil
			}
			return tr.std.Import(imp)
		}),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if prod {
		info.Types = map[ast.Expr]types.TypeAndValue{}
	}
	pkg, _ := conf.Check(path, tr.fset, files, info)
	if prod && firstErr != nil {
		t.Fatalf("type-checking %s: %v", path, firstErr)
	}
	if prod {
		tr.recordFields(files, info)
	}
	for id, obj := range info.Uses {
		if test := strings.HasSuffix(tr.fset.Position(id.Pos()).Filename, "_test.go"); test == prod {
			continue
		}
		if k := objKey(obj); k != "" {
			if prod {
				tr.used[k] = true
			} else {
				tr.testUsed[k] = true
			}
		}
		if fn, ok := obj.(*types.Func); ok && prod {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					tr.ifaceCalls[fn.Name()] = append(tr.ifaceCalls[fn.Name()], iface)
				}
			}
		}
	}
	return pkg
}

// recordFields sorts the field uses in files into writes and reads.
func (tr *tree) recordFields(files []*ast.File, info *types.Info) {
	writes, elemWrites := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	written := func(e ast.Expr) {
		e = ast.Unparen(e)
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
		// An array's element lives in the array: setting it sets the
		// field that holds the array.
		for {
			ix, ok := e.(*ast.IndexExpr)
			if !ok {
				return
			}
			e = ast.Unparen(ix.X)
			if _, ok := info.Types[e].Type.Underlying().(*types.Array); !ok {
				return
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				elemWrites[sel.Sel] = true
			}
		}
	}
	structFields := func(e ast.Expr) *types.Struct {
		st, _ := info.Types[e].Type.(*types.Struct)
		return st
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st := structFields(n.Type); st != nil {
					for i := 0; i < st.NumFields(); i++ {
						tr.fieldOwner[st.Field(i)] = f.Name.Name + "." + n.Name.Name
					}
				}
			case *ast.StructType:
				if st := structFields(n); st != nil {
					tag := tagged(st)
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if tag {
							tr.tagged[f] = true
						}
						if strings.HasPrefix(f.Pkg().Path(), "farm/internal/") {
							tr.fieldDeclared[f] = true
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				}
			case *ast.IncDecStmt:
				written(n.X)
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						writes[kv.Key.(*ast.Ident)] = true
					} else {
						tr.fieldWritten[st.Field(i)] = true
					}
				}
			}
			return true
		})
	}
	// A struct compared, or hashed as a map key, reads all its fields.
	var readAll func(typ types.Type)
	readAll = func(typ types.Type) {
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				tr.fieldRead[st.Field(i)] = true
				readAll(st.Field(i).Type())
			}
		}
	}
	for e, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			readAll(m.Key())
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			readAll(info.Types[b.X].Type)
		}
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if writes[id] {
				tr.fieldWritten[v] = true
			} else {
				tr.fieldRead[v] = true
			}
			if elemWrites[id] {
				tr.fieldSet[v] = true
			}
		}
	}
}

// tagged reports whether a field of st has a json or xml tag.
func tagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		tag := reflect.StructTag(st.Tag(i))
		for _, key := range []string{"json", "xml"} {
			if _, ok := tag.Lookup(key); ok {
				return true
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// objKey names a module package's object as the check reports it:
// "pkg.Name" for a package-level one, "pkg.Type.Method" for a method of
// a named type, where pkg is the last element of the import path; ""
// for anything else.
func objKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path(), "farm/internal/") || strings.HasSuffix(pkg.Path(), "_test") {
		return ""
	}
	name := filepath.Base(pkg.Path()) + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			n, ok := rt.(*types.Named)
			if !ok {
				return ""
			}
			return name + n.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != pkg.Scope() {
		return ""
	}
	return name + obj.Name()
}
