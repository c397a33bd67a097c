package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// testOnlyAllowed lists the functions that no non-test code calls but
// that stay anyway, each with the reason it earns its lines.
var testOnlyAllowed = map[string]string{
	"dpml/internal/sim.Proc.Sleep":   "the sim package doc's proc example, and most kernel tests, park a proc with it",
	"dpml/internal/sim.Kernel.Spawn": "the sim package doc's entry point for a bare kernel, and most kernel tests, start procs with it",
}

// TestNoTestOnlyFunctions fails on every function or method declared in
// non-test code that no non-test code references: API that only tests
// call is dead weight the tests keep alive. A method whose name some
// interface in the module's type info declares may be called through
// that interface, so it is skipped, as are String and Error (fmt calls
// them implicitly), main and init.
func TestNoTestOnlyFunctions(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	used := map[*types.Func]bool{}
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	seen := map[types.Type]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
		for _, tv := range p.Info.Types {
			collectInterfaceMethods(tv.Type, ifaceMethods, seen)
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				collectInterfaceMethods(obj.Type(), ifaceMethods, seen)
			}
		}
	}
	var unused []string
	allowed := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[fn] || fd.Recv != nil && ifaceMethods[fn.Name()] {
					continue
				}
				name := p.Path + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					name = p.Path + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
				}
				if _, ok := testOnlyAllowed[name]; ok {
					allowed[name] = true
					continue
				}
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is declared in non-test code but only tests use it: delete it, or move it into a _test.go file", name)
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("stale allowance: %s is gone or used by non-test code", name)
		}
	}
}

// collectInterfaceMethods adds to names the method names of every
// interface type reachable from t through signatures and composite
// types.
func collectInterfaceMethods(t types.Type, names map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if _, ok := t.Underlying().(*types.Interface); ok {
			collectInterfaceMethods(t.Underlying(), names, seen)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			names[t.Method(i).Name()] = true
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaceMethods(tup.At(i).Type(), names, seen)
			}
		}
	case *types.Pointer:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Slice:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Array:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Chan:
		collectInterfaceMethods(t.Elem(), names, seen)
	case *types.Map:
		collectInterfaceMethods(t.Key(), names, seen)
		collectInterfaceMethods(t.Elem(), names, seen)
	}
}
