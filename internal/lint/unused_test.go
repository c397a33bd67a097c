package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// testOnlyAllowed lists the package-level names that no non-test code
// references but that stay anyway, each with the reason it earns its
// lines.
var testOnlyAllowed = map[string]string{
	"dpml/internal/sim.Proc.Sleep":   "the sim package doc's proc example, and most kernel tests, park a proc with it",
	"dpml/internal/sim.Kernel.Spawn": "the sim package doc's entry point for a bare kernel, and most kernel tests, start procs with it",
}

// TestNoTestOnlyFunctions fails on every package-level name declared in
// non-test code (function, method, type, var or const, in any package of
// the module, the root package included) that no non-test code
// references: API that only tests use is dead weight the tests keep
// alive. A method whose name some interface in the module's type info
// declares may be called through that interface, so it is skipped, as
// are String and Error (fmt calls them implicitly), main and init.
func TestNoTestOnlyFunctions(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	seen := map[types.Type]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
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
	report := func(p *Package, id *ast.Ident, recv *ast.FieldList) {
		obj := p.Info.Defs[id]
		if obj == nil || used[obj] || recv != nil && ifaceMethods[id.Name] {
			return
		}
		name := p.Path + "." + id.Name
		if recv != nil {
			rt := obj.Type().(*types.Signature).Recv().Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			name = p.Path + "." + rt.(*types.Named).Obj().Name() + "." + id.Name
		}
		if _, ok := testOnlyAllowed[name]; ok {
			allowed[name] = true
			return
		}
		unused = append(unused, name)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						continue
					}
					report(p, d.Name, d.Recv)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							report(p, s.Name, nil)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									report(p, id, nil)
								}
							}
						}
					}
				}
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
