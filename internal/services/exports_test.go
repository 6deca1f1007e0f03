package services

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestEveryExportHasACaller keeps the internal API honest: every exported
// function, method, type, const and package-level var declared under
// internal/ must be referenced from a non-test file of the root module or
// of the benchmark module. A name only tests call is a name nobody uses;
// delete it, unexport it, or move it into an export_test.go.
//
// The check type-checks the non-test files (stdlib from source), so a use
// is resolved to the object it names, not matched by spelling. Two kinds of
// export are exempt by rule: the exports of main packages, and a method
// that its type (or a pointer to it) needs to implement an interface that
// names it: error, or one declared in a checked package or in one a checked
// package imports (String, ServeHTTP, the store.Store methods, ...).
func TestEveryExportHasACaller(t *testing.T) {
	c, err := loadExportCheck()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.uncalled() {
		t.Errorf("no non-test file uses %s", m)
	}
}

// TestEveryConfigFieldHasACaller keeps the settings honest: every exported
// field of the structs that configure a layer must be referenced by a
// non-test file of either module outside the package that declares it. A
// field only its own package's tests set is a test hook; unexport it. A
// field nothing else sets has one value; make it a constant.
func TestEveryConfigFieldHasACaller(t *testing.T) {
	c, err := loadExportCheck()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct{ pkg, name string }{
		{"repro/internal/core", "Options"},
		{"repro/internal/engine", "Config"},
		{"repro/internal/engine", "TenantConfig"},
		{"repro/internal/coordination", "Config"},
		{"repro/internal/planner", "ServiceConfig"},
		{"repro/internal/store", "Options"},
		{"repro/internal/grid", "SyntheticConfig"},
		{"repro/internal/httpapi", "Server"},
	} {
		pkg := c.pkgs[st.pkg]
		if pkg == nil {
			t.Errorf("package %s not checked", st.pkg)
			continue
		}
		tn, ok := pkg.Scope().Lookup(st.name).(*types.TypeName)
		if !ok {
			t.Errorf("%s.%s is not a type", pkg.Name(), st.name)
			continue
		}
		fields := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < fields.NumFields(); i++ {
			f := fields.Field(i)
			if f.Exported() && !c.usedOutside[f] {
				pos := c.fset.Position(f.Pos())
				rel, _ := filepath.Rel(c.root, pos.Filename)
				t.Errorf("no non-test file outside %s uses %s.%s.%s (%s:%d)",
					pkg.Name(), pkg.Name(), st.name, f.Name(), rel, pos.Line)
			}
		}
	}
}

// loadExportCheck type-checks the non-test files of the root module and of
// the benchmark module, once per test binary.
var loadExportCheck = sync.OnceValues(func() (*exportCheck, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	c := newExportCheck(root)
	for _, mod := range []struct{ path, dir string }{
		{"repro", root},
		{"repro/benchmark", filepath.Join(root, "benchmark")},
	} {
		if err := c.loadModule(mod.path, mod.dir); err != nil {
			return nil, err
		}
	}
	if len(c.pkgs) < 20 {
		return nil, fmt.Errorf("checked only %d packages: the scan is broken", len(c.pkgs))
	}
	return c, nil
})

// exportCheck type-checks the module's packages from their non-test files
// and records every object a use resolves to.
type exportCheck struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package // checked packages by import path
	dirs map[string]string         // import path -> directory, for the repro/ packages
	used map[types.Object]bool
	// usedOutside holds the struct fields used from a package other than
	// the one that declares them.
	usedOutside map[types.Object]bool
}

func newExportCheck(root string) *exportCheck {
	fset := token.NewFileSet()
	return &exportCheck{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		dirs: map[string]string{},
		used: map[types.Object]bool{},

		usedOutside: map[types.Object]bool{},
	}
}

// loadModule checks every package directory of the module rooted at dir,
// skipping nested modules, hidden directories and testdata.
func (c *exportCheck) loadModule(modPath, dir string) error {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir {
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(dir, path)
		imp := modPath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		c.dirs[imp] = path
		paths = append(paths, imp)
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			return err
		}
	}
	return nil
}

// Import checks a repro/ package from its non-test files, and hands any
// other path to the stdlib source importer.
func (c *exportCheck) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := c.dirs[path]
	if !ok {
		if path == "repro" || strings.HasPrefix(path, "repro/") {
			return nil, fmt.Errorf("package %s is not in the module", path)
		}
		return c.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		c.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		obj = origin(obj)
		c.used[obj] = true
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
			c.usedOutside[obj] = true
		}
	}
	c.pkgs[path] = pkg
	return pkg, nil
}

// origin maps a use of an instantiated generic function, method or field
// back to the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// uncalled lists the exports under internal/ that nothing uses, as
// "pkg.Name" or "pkg.Type.Method".
func (c *exportCheck) uncalled() []string {
	ifaces := c.interfaces()
	var out []string
	report := func(obj types.Object, name string) {
		if !c.used[obj] {
			pos := c.fset.Position(obj.Pos())
			rel, _ := filepath.Rel(c.root, pos.Filename)
			out = append(out, fmt.Sprintf("%s.%s (%s:%d)", obj.Pkg().Name(), name, rel, pos.Line))
		}
	}
	for path, pkg := range c.pkgs {
		if pkg == nil || pkg.Name() == "main" || !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !implementsWith(named, m.Name(), ifaces) {
					report(m, name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// interfaces gathers error and the method-set interfaces declared at
// package level in the checked packages and in the packages they import.
func (c *exportCheck) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	for _, pkg := range c.pkgs {
		if pkg == nil {
			continue
		}
		add(pkg)
		for _, imp := range pkg.Imports() {
			add(imp)
		}
	}
	return out
}

// implementsWith reports whether T or *T implements an interface that has
// a method of the given name.
func implementsWith(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if !hasMethod(it, method) {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
