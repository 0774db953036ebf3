package farm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExempt names the exported internal/ identifiers that may keep
// test-only users, each with the reason it stays exported.
var testOnlyExempt = map[string]string{
	"traffic.BulkWorkload.HeavyPorts": "the ground truth a heavy-hitter scorer is graded against: " +
		"the generator's own record of which ports it made heavy, read by the tests that check detection",
}

// TestNoTestOnlyExports holds each internal/ package's API to what the
// program uses. An exported top-level identifier, or an exported method
// of an exported type, declared in a non-test file under internal/ and
// named by a test must also be named by a non-test file of internal/,
// cmd/, examples/ or bench/ (bench/ compiles against this API); a use
// in its own file counts, its declaration does not. An identifier only
// tests name goes, or moves into the test files that use it
// (export_test.go when an external test needs it).
//
// The scan reads syntax only, comments dropped: a package-level name
// counts as used by a bare identifier in a file of its package or by a
// selector on an import of its package; a method counts as used by any
// selector with its name. A shared name can hide a test-only export,
// never invent one.
func TestNoTestOnlyExports(t *testing.T) {
	files := parseTree(t, "internal", "cmd", "examples", "bench")
	module := "farm/"

	type decl struct {
		key  string // "pkg.Name" or "pkg.Type.Method"
		pos  string
		file *goFile
		name string
		meth bool
	}
	var decls []decl
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := filepath.Base(f.dir)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{pkg + "." + d.Name.Name, f.pos(d.Name), f, d.Name.Name, false})
					continue
				}
				recv := recvName(d.Recv.List[0].Type)
				if ast.IsExported(recv) {
					decls = append(decls, decl{pkg + "." + recv + "." + d.Name.Name, f.pos(d.Name), f, d.Name.Name, true})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if n.IsExported() {
							decls = append(decls, decl{pkg + "." + n.Name, f.pos(n), f, n.Name, false})
						}
					}
				}
			}
		}
	}

	// namedBy reports whether a test file, or a non-test file, as test
	// says, names d. d's declaration is not a use of it.
	namedBy := func(d decl, test bool) bool {
		for _, u := range files {
			if u.test != test {
				continue
			}
			if d.meth {
				if u.selectors[d.name] {
					return true
				}
				continue
			}
			if u.dir == d.file.dir && u.bare[d.name] > b2i(u == d.file) {
				return true
			}
			if u.qualified[module+d.file.dir+"."+d.name] {
				return true
			}
		}
		return false
	}

	var testOnly []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if namedBy(d, false) {
			if _, ok := testOnlyExempt[d.key]; ok {
				t.Errorf("%s: exempt from this check, but the program now uses it: drop its exemption", d.key)
			}
			continue
		}
		if _, ok := testOnlyExempt[d.key]; ok || !namedBy(d, true) {
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
		t.Errorf("%s is exported, but outside its own file only tests name it: delete it, or move it into the tests", u)
	}
}

type goFile struct {
	path, dir string
	test      bool
	ast       *ast.File
	fset      *token.FileSet
	bare      map[string]int  // identifiers outside selectors, with their counts
	selectors map[string]bool // every x.Name's Name
	qualified map[string]bool // "importpath.Name" for pkg.Name through an import
}

func (f *goFile) pos(n ast.Node) string {
	p := f.fset.Position(n.Pos())
	return f.path + ":" + strconv.Itoa(p.Line)
}

// parseTree parses every .go file under roots, skipping testdata, with
// comments dropped, and indexes the names each file refers to.
func parseTree(t *testing.T, roots ...string) []*goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*goFile
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if e.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			af, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			path = filepath.ToSlash(path)
			files = append(files, indexFile(&goFile{
				path: path,
				dir:  filepath.ToSlash(filepath.Dir(path)),
				test: strings.HasSuffix(path, "_test.go"),
				ast:  af,
				fset: fset,
			}))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func indexFile(f *goFile) *goFile {
	f.bare = map[string]int{}
	f.selectors = map[string]bool{}
	f.qualified = map[string]bool{}
	imports := map[string]string{} // local name -> import path
	for _, im := range f.ast.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		name := filepath.Base(path)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = path
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			f.selectors[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					f.qualified[path+"."+n.Sel.Name] = true
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			f.bare[n.Name]++
		}
		return true
	}
	ast.Inspect(f.ast, visit)
	return f
}

// recvName is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
