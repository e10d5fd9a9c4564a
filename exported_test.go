package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// uncalled is the exported surface under internal/ that no product code
// calls: every package-level name and method that no non-test file of
// either module (this one, whose cmd/ and examples/ are its products, and
// bench/) refers to. A new exported name needs a caller outside the tests
// or an entry here in the same diff, with the reason, which is where its
// caller gets argued; a name that gains a caller, or goes, leaves.
var uncalled = map[string]string{
	"core.Coordinator.Run":        "the unforked cold run experiments' fork tests compare with",
	"experiments.Evaluate":        "the claims' one evaluator, which ROADMAP items 2 (ecbench's fidelity gate), 13 (placement ensembles) and 14 (the scale ladder) call",
	"gf256.SetBackend":            "conformance and gf256 tests sweep every kernel tier in one process",
	"simclock.Queue.TotalWaiting": "a queue's wait area, which ROADMAP item 11's per-resource bounds read",
	"simclock.Sim.RunUntil":       "the sliced run ROADMAP item 4 drives faults between; FuzzRunUntilSlicing proves it exact",
	"simclock.Sim.Stats":          "the engine census whose event counts and peaks core's TestEventsPerRepair pins",
}

func TestExportedMeansCalled(t *testing.T) {
	got, err := uncalledExports(os.DirFS("."), ".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for name := range uncalled {
		want = append(want, name)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		var extra, stale []string
		for _, name := range got {
			if _, ok := uncalled[name]; !ok {
				extra = append(extra, name)
			}
		}
		for _, name := range want {
			if !slices.Contains(got, name) {
				stale = append(stale, name)
			}
		}
		t.Errorf("exported under internal/ with no caller outside tests (%d):\n  %s\nnot in uncalled: %v\nin uncalled but called or gone: %v",
			len(got), strings.Join(got, "\n  "), extra, stale)
	}
}

// TestExportedMeansCalledFixture runs the guard over two in-memory
// packages: a used export (Called), an export that only a _test.go file
// calls (T.OnlyTests), a method an interface reaches (T.Name, through
// Namer) and a struct field (T.Field). Exactly the test-only export must
// be reported; it is a method of the struct with the field, so an
// exemption widened to every method or to the struct's type fails here.
func TestExportedMeansCalledFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module fix\n")},
		"internal/lib/lib.go": {Data: []byte(`package lib

type Namer interface{ Name() string }

type T struct{ Field int }

func (T) Name() string { return "t" }

func (T) OnlyTests() {}

func Called() Namer { return T{} }
`)},
		"internal/lib/lib_test.go": {Data: []byte(`package lib

import "testing"

func TestOnly(t *testing.T) { T{}.OnlyTests() }
`)},
		"cmd/app/main.go": {Data: []byte(`package main

import "fix/internal/lib"

func main() { println(lib.Called().Name()) }
`)},
	}
	got, err := uncalledExports(fsys, ".")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.T.OnlyTests"}; !slices.Equal(got, want) {
		t.Errorf("fixture: got %v, want %v", got, want)
	}
}

// uncalledExports type-checks every non-test package of the modules rooted
// at dirs (the first is the one whose internal/ is scanned) and returns,
// sorted, each exported package-level name and method under that
// module's internal/ that no non-test file refers to, as "pkg.Name" or
// "pkg.Type.Method" with pkg relative to internal/. Struct fields are not
// scanned (encoding/json and reflection read them), and neither is a
// method whose name belongs to an interface its receiver type
// implements: a call through the interface does not name it. Files are
// chosen by go/build's default context, so a test binary's -tags do not
// change the answer; the standard library is type-checked from source.
func uncalledExports(fsys fs.FS, dirs ...string) ([]string, error) {
	l := newLoader(fsys)
	var root string
	for _, dir := range dirs {
		mod, err := modulePath(fsys, dir)
		if err != nil {
			return nil, err
		}
		if root == "" {
			root = mod
		}
		l.modules[mod] = dir
	}
	var local []*types.Package
	for mod, dir := range l.modules {
		err := fs.WalkDir(fsys, dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != dir {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return fs.SkipDir
				}
				if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); err == nil {
					return fs.SkipDir // a module of its own
				}
			}
			pkg, err := l.Import(path.Join(mod, strings.TrimPrefix(p, dir)))
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			local = append(local, pkg)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Uses records the object every identifier refers to, the selected
	// field or method of a selector included.
	called := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a generic's instance counts for its declaration
		}
		called[obj] = true
	}
	reached := viaInterface(local, interfaces(local))
	var out []string
	for _, pkg := range local {
		rel, ok := strings.CutPrefix(pkg.Path(), root+"/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !called[obj] {
				out = append(out, rel+"."+name)
			}
			for _, m := range declaredMethods(obj) {
				if m.Exported() && !called[m] && !reached[m] {
					out = append(out, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// loader type-checks the non-test packages of a set of modules in fsys,
// each once, recording every identifier's use in one types.Info.
type loader struct {
	fsys    fs.FS
	fset    *token.FileSet
	ctxt    build.Context
	std     types.Importer
	modules map[string]string // module path → its directory in fsys
	pkgs    map[string]*types.Package
	info    *types.Info
}

// newLoader returns a loader whose go/build context is the default one
// (GOOS, GOARCH, no extra tags) reading fsys instead of the disk.
func newLoader(fsys fs.FS) *loader {
	l := &loader{
		fsys:    fsys,
		fset:    token.NewFileSet(),
		ctxt:    build.Default,
		modules: map[string]string{},
		pkgs:    map[string]*types.Package{},
		info:    &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.ctxt.JoinPath = path.Join
	l.ctxt.IsAbsPath = func(string) bool { return false }
	l.ctxt.HasSubdir = func(string, string) (string, bool) { return "", false }
	l.ctxt.IsDir = func(dir string) bool {
		fi, err := fs.Stat(fsys, dir)
		return err == nil && fi.IsDir()
	}
	l.ctxt.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		entries, err := fs.ReadDir(fsys, dir)
		var infos []fs.FileInfo
		for _, e := range entries {
			if fi, err := e.Info(); err == nil {
				infos = append(infos, fi)
			}
		}
		return infos, err
	}
	l.ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	return l
}

// Import type-checks a package of one of the modules, the one with the
// longest matching path, from its non-test files, and hands any other
// path to the standard library's importer.
func (l *loader) Import(ipath string) (*types.Package, error) {
	if pkg, ok := l.pkgs[ipath]; ok {
		return pkg, nil
	}
	mod := ""
	for m := range l.modules {
		if (ipath == m || strings.HasPrefix(ipath, m+"/")) && len(m) > len(mod) {
			mod = m
		}
	}
	if mod == "" {
		return l.std.Import(ipath)
	}
	bp, err := l.ctxt.ImportDir(path.Join(l.modules[mod], strings.TrimPrefix(ipath, mod)), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		name = path.Join(bp.Dir, name)
		src, err := fs.ReadFile(l.fsys, name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(ipath, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ipath, err)
	}
	l.pkgs[ipath] = pkg
	return pkg, nil
}

func modulePath(fsys fs.FS, dir string) (string, error) {
	f, err := fsys.Open(path.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(sc.Text(), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// interfaces returns every non-generic named interface declared in pkgs
// or in any package they import, error included.
func interfaces(pkgs []*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if iface, ok := named.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg)
	}
	return ifaces
}

// declaredMethods returns the methods declared with the named type obj
// names, an interface's included, and none for an alias of a type
// declared elsewhere.
func declaredMethods(obj types.Object) []*types.Func {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || named.Obj() != tn {
		return nil
	}
	var methods []*types.Func
	for i := 0; i < named.NumMethods(); i++ {
		methods = append(methods, named.Method(i))
	}
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			methods = append(methods, iface.ExplicitMethod(i))
		}
	}
	return methods
}

// viaInterface returns the methods a call through an interface can reach:
// for every concrete named type declared in pkgs that implements one of
// ifaces (itself or through a pointer), the method each of the
// interface's names selects on it, a method promoted from an embedded
// type included.
func viaInterface(pkgs []*types.Package, ifaces []*types.Interface) map[types.Object]bool {
	reached := map[types.Object]bool{}
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					if sel := mset.Lookup(pkg, iface.Method(i).Name()); sel != nil {
						reached[sel.Obj()] = true
					}
				}
			}
		}
	}
	return reached
}
