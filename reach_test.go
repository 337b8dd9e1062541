package gridsched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestNothingReachedOnlyByTests fails on every non-test declaration of a
// product package that no binary, example, benchmark or public API reaches:
// code only tests use belongs in a _test.go file or a test-support package.
//
// The walk type-checks the module's packages without their tests, plus the
// outside benchmark in bench/, and marks reachable everything referenced,
// transitively, from these roots:
//   - the main and init functions of every main package (cmd/*, examples/*,
//     bench);
//   - init functions, package-level variable initializers and blank
//     `var _ I = …` assertions;
//   - the exported API of the root package;
//   - every method of a reachable type that lets it satisfy an interface
//     declared in the module or in a standard package the module imports,
//     and net/http's unexported Unwrap() http.ResponseWriter convention.
//
// A package that no non-test package imports is test support and is exempt.
func TestNothingReachedOnlyByTests(t *testing.T) {
	w, err := loadModule(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range w.unreached() {
		t.Errorf("only tests reach %s", line)
	}
}

type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// goList runs `go list -json` in dir and decodes its stream of packages.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v in %s: %v\n%s", args, dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type checkedPkg struct {
	listedPkg
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// walk is the module's declaration graph.
type walk struct {
	root    string
	fset    *token.FileSet
	pkgs    []*checkedPkg
	byPath  map[string]*checkedPkg
	refs    map[types.Object][]types.Object // declaration -> what it names
	roots   []types.Object
	decls   []types.Object // reportable declarations
	ifaces  []*types.Interface
	reached map[types.Object]bool
}

// loadModule lists and type-checks the module at root and the benchmark
// module in root/bench (whose main package counts as a root).
func loadModule(root, bench string) (*walk, error) {
	listed, err := goList(root, "-deps", "./...")
	if err != nil {
		return nil, err
	}
	benchPkgs, err := goList(filepath.Join(root, bench), ".")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	w := &walk{
		root:    abs,
		fset:    token.NewFileSet(),
		byPath:  map[string]*checkedPkg{},
		refs:    map[types.Object][]types.Object{},
		reached: map[types.Object]bool{},
	}
	std := importer.Default()
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := w.byPath[path]; ok {
			return p.pkg, nil
		}
		return std.Import(path)
	})}
	stdSeen := map[string]bool{}
	for _, lp := range append(listed, benchPkgs...) {
		if lp.Standard {
			continue
		}
		cp := &checkedPkg{listedPkg: lp, info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(w.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		if cp.pkg, err = conf.Check(lp.ImportPath, w.fset, cp.files, cp.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		w.pkgs = append(w.pkgs, cp)
		w.byPath[lp.ImportPath] = cp
		for _, imp := range cp.pkg.Imports() {
			if _, mod := w.byPath[imp.Path()]; !mod && !stdSeen[imp.Path()] {
				stdSeen[imp.Path()] = true
				w.addInterfaces(imp.Scope())
				if imp.Path() == "net/http" {
					w.ifaces = append(w.ifaces, responseUnwrapper(imp))
				}
			}
		}
	}
	w.ifaces = append(w.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, cp := range w.pkgs {
		w.addInterfaces(cp.pkg.Scope())
		w.graph(cp, benchPkgs)
	}
	return w, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addInterfaces records every interface a package scope declares.
func (w *walk) addInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			w.ifaces = append(w.ifaces, it)
		}
	}
}

// responseUnwrapper is interface{ Unwrap() http.ResponseWriter }, through
// which http.ResponseController reaches a wrapped writer. net/http declares
// it unexported inside a function, so export data does not list it.
func responseUnwrapper(http *types.Package) *types.Interface {
	rw := types.NewVar(token.NoPos, http, "", http.Scope().Lookup("ResponseWriter").Type())
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(rw), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, http, "Unwrap", sig)}, nil).Complete()
}

// graph adds one package's declarations, their references and its roots.
func (w *walk) graph(cp *checkedPkg, benchPkgs []listedPkg) {
	isBench := false
	for _, b := range benchPkgs {
		isBench = isBench || b.ImportPath == cp.ImportPath
	}
	api := cp.ImportPath == "gridsched"
	report := !isBench && (cp.Name == "main" || w.importedByProduct(cp.ImportPath))
	for _, f := range cp.files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Anonymous interfaces (type assertions to interface{ M() })
			// count as declared in the module.
			if it, ok := n.(*ast.InterfaceType); ok {
				if tv, ok := cp.info.Types[it]; ok {
					if iface := tv.Type.Underlying().(*types.Interface); iface.IsMethodSet() && iface.NumMethods() > 0 {
						w.ifaces = append(w.ifaces, iface)
					}
				}
			}
			return true
		})
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := cp.info.Defs[d.Name]
				w.refs[obj] = w.uses(cp, d)
				switch {
				case d.Recv == nil && (d.Name.Name == "init" || (cp.Name == "main" && d.Name.Name == "main")):
					w.roots = append(w.roots, obj)
					continue
				case api && obj.Exported() && (d.Recv == nil || recvNamed(obj).Obj().Exported()):
					w.roots = append(w.roots, obj)
				}
				if report {
					w.decls = append(w.decls, obj)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					initialized := false
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
						initialized = d.Tok == token.VAR && len(s.Values) > 0
					default:
						continue
					}
					refs := w.uses(cp, spec)
					for _, id := range names {
						obj := cp.info.Defs[id]
						if obj == nil {
							continue
						}
						w.refs[obj] = append(refs, namedObj(obj.Type())...)
						if id.Name == "_" || initialized || (api && obj.Exported()) {
							w.roots = append(w.roots, obj)
						}
						if report && id.Name != "_" {
							w.decls = append(w.decls, obj)
						}
					}
				}
			}
		}
	}
}

// importedByProduct reports whether any non-test package of the module or
// the benchmark imports path.
func (w *walk) importedByProduct(path string) bool {
	if path == "gridsched" {
		return true
	}
	for _, cp := range w.pkgs {
		for _, imp := range cp.Imports {
			if imp == path {
				return true
			}
		}
	}
	return false
}

// uses returns the module's package-level objects and concrete methods that
// node names.
func (w *walk) uses(cp *checkedPkg, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.declared(cp.info.Uses[id]); obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// declared maps obj to the declaration the graph keys it by, or nil when obj
// is local, a field, an interface method, or outside the module.
func (w *walk) declared(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if _, mod := w.byPath[obj.Pkg().Path()]; !mod {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if sig := o.Type().(*types.Signature); sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				return nil
			}
			return o
		}
		return o
	case *types.Var:
		if o.IsField() {
			return nil
		}
		o = o.Origin()
		if o.Parent() != o.Pkg().Scope() {
			return nil
		}
		return o
	case *types.Const, *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return nil
		}
		return o
	}
	return nil
}

// namedObj returns the module type a value's type names, so an enum constant
// keeps its type even when it repeats an implicit spec.
func namedObj(t types.Type) []types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return []types.Object{n.Origin().Obj()}
	}
	return nil
}

func recvNamed(fn types.Object) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// unreached runs the walk and returns "file:line name" for every reportable
// declaration it did not reach.
func (w *walk) unreached() []string {
	queue := append([]types.Object(nil), w.roots...)
	mark := func(o types.Object) {
		if !w.reached[o] {
			w.reached[o] = true
			queue = append(queue, o)
		}
	}
	for _, r := range w.roots {
		w.reached[r] = true
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range w.refs[obj] {
			mark(r)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if named.TypeParams().Len() > 0 {
			for i := 0; i < named.NumMethods(); i++ {
				mark(named.Method(i))
			}
			continue
		}
		for _, it := range w.ifaces {
			var impl types.Type
			switch {
			case types.Implements(named, it):
				impl = named
			case types.Implements(types.NewPointer(named), it):
				impl = types.NewPointer(named)
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(impl, false, it.Method(i).Pkg(), it.Method(i).Name())
				if m := w.declared(m); m != nil {
					mark(m)
				}
			}
		}
	}
	var out []string
	sort.Slice(w.decls, func(i, j int) bool {
		a, b := w.fset.Position(w.decls[i].Pos()), w.fset.Position(w.decls[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	for _, d := range w.decls {
		if w.reached[d] {
			continue
		}
		pos := w.fset.Position(d.Pos())
		file, _ := filepath.Rel(w.root, pos.Filename)
		name := d.Name()
		if fn, ok := d.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			name = recvNamed(fn).Obj().Name() + "." + name
		}
		out = append(out, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), pos.Line, name))
	}
	return out
}
