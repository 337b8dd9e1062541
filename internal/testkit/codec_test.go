package testkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestEveryClientFollowsTheCodecMatrix fails on a client built in the
// service or client suites that the CI codec matrix cannot reach: every
// client.New, client.NewMulti or client.InProcess there is the argument of
// WireCodec (wireCodec inside package client), or built in a function that
// pins its codec with SetCodec. An unwrapped client would run JSON in the
// binary step and pass without binary ever on the wire.
func TestEveryClientFollowsTheCodecMatrix(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../service", "../service/client"} {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || callsMethod(fn, "SetCodec") {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee(call) == "WireCodec" || callee(call) == "wireCodec" {
						return false // its argument is wrapped
					}
					if constructs(call, f.Name.Name) {
						t.Errorf("%s: client built outside WireCodec", fset.Position(call.Pos()))
					}
					return true
				})
			}
		}
	}
}

// callee names the function or method call calls.
func callee(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// constructs reports whether call builds a client: client.X from outside
// package client, a bare X inside it.
func constructs(call *ast.CallExpr, pkg string) bool {
	name := callee(call)
	if name != "New" && name != "NewMulti" && name != "InProcess" {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pkg == "client"
	case *ast.SelectorExpr:
		x, ok := fun.X.(*ast.Ident)
		return ok && x.Name == "client"
	}
	return false
}

// callsMethod reports whether fn calls a method named name.
func callsMethod(fn *ast.FuncDecl, name string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}
