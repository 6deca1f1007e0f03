package services

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

// TestEveryHandledMessageHasASender keeps every agent protocol honest: each
// module type an agent handles — a case of a type switch on a message's
// Content, or a Content.(T) assertion — must be built as a composite literal
// T{…} in some non-test file of the module. A protocol only tests send is a
// protocol nobody uses; delete it rather than keep answering it.
func TestEveryHandledMessageHasASender(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	declared := map[string]bool{}    // "pkg.Type" declared in the module
	handled := map[string][]string{} // "pkg.Type" -> positions handling it
	built := map[string]bool{}       // "pkg.Type" with a composite literal
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanFile(fset, f, declared, handled, built)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for typ, at := range handled {
		if declared[typ] && !built[typ] {
			missing = append(missing, typ+" (handled at "+strings.Join(at, ", ")+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no non-test file sends %s", m)
	}
	if len(handled) == 0 {
		t.Fatal("found no handled message types: the scan is broken")
	}
}

// scanFile records the types one file declares, handles and builds, each
// keyed "pkg.Type" by the package's name (the module's import paths end in
// their package names).
func scanFile(fset *token.FileSet, f *ast.File, declared map[string]bool, handled map[string][]string, built map[string]bool) {
	pkg := f.Name.Name
	imports := map[string]string{} // local name -> package name
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndexByte(path, '/')+1:]
		local := name
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = name
	}
	key := func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return pkg + "." + e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
				return imports[x.Name] + "." + e.Sel.Name
			}
		}
		return ""
	}
	isContent := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Content"
	}
	handle := func(e ast.Expr) {
		if k := key(e); k != "" {
			handled[k] = append(handled[k], fset.Position(e.Pos()).String())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			declared[pkg+"."+n.Name.Name] = true
		case *ast.CompositeLit:
			if k := key(n.Type); k != "" {
				built[k] = true
			}
		case *ast.TypeSwitchStmt:
			var x ast.Expr
			switch s := n.Assign.(type) {
			case *ast.AssignStmt:
				x = s.Rhs[0]
			case *ast.ExprStmt:
				x = s.X
			}
			if ta, ok := x.(*ast.TypeAssertExpr); ok && isContent(ta.X) {
				for _, c := range n.Body.List {
					for _, typ := range c.(*ast.CaseClause).List {
						handle(typ)
					}
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil && isContent(n.X) {
				handle(n.Type)
			}
		}
		return true
	})
}
