package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// callgraph.go builds the module-wide call graph the interprocedural
// analyzers (lpown, sendpath) walk. Resolution is CHA-style (class
// hierarchy analysis): static calls resolve to their one callee, and
// calls through an interface method resolve to that method on every
// named type in scope whose method set satisfies the interface — sound
// for the repo's small interface surface, over-approximate in general.
// Two indirections are not modelled, by design: calls through function
// values (closures stored in fields, callback parameters invoked as
// fn()) produce no edge, and function literals are attributed to their
// enclosing declared function. Both choices are documented in DESIGN.md
// §10; the kernel's runtime assertions remain the backstop for what the
// graph cannot see.

// CGNode is one function in the call graph. Fn is the canonical
// *types.Func (generic instantiations are folded into their origin).
// Decl and Pkg are set only for functions whose bodies are in scope;
// out-of-scope callees (the standard library) appear as body-less leaf
// nodes so sinks like time.Now are still addressable.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []*CGEdge
	In   []*CGEdge
}

// Name returns the node's qualified display name: "pkg.Func" or
// "pkg.(*T).Method", with the package's base name, matching how a
// reader would write the call in a finding message.
func (n *CGNode) Name() string {
	fn := n.Fn
	name := fn.Name()
	if recv := recvOf(fn); recv != nil {
		name = types.TypeString(recv.Type(), func(p *types.Package) string { return "" }) + "." + name
	}
	if p := fn.Pkg(); p != nil {
		return p.Name() + "." + name
	}
	return name
}

// CGEdge is one call site: Caller invokes Callee at Call.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Call   *ast.CallExpr
}

// CallGraph is the module-wide graph over every function declared in
// the packages it was built from, plus leaf nodes for external callees.
type CallGraph struct {
	nodes map[*types.Func]*CGNode
	order []*CGNode // insertion order: deterministic given package order
}

// Node returns the graph node for fn (folding generic instantiations),
// or nil if fn was never seen.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every node in deterministic build order.
func (g *CallGraph) Nodes() []*CGNode { return g.order }

func (g *CallGraph) intern(fn *types.Func) *CGNode {
	fn = fn.Origin()
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &CGNode{Fn: fn}
	g.nodes[fn] = n
	g.order = append(g.order, n)
	return n
}

// BuildCallGraph constructs the graph over pkgs (already sorted by
// import path by the loader, which makes node and edge order — and
// therefore every path reported from the graph — deterministic).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[*types.Func]*CGNode{}}
	concrete := concreteTypes(pkgs)

	// First pass: intern every declared function so In/Out edges attach
	// to nodes that know their body and package.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.intern(fn)
				n.Decl, n.Pkg = fd, pkg
			}
		}
	}

	// Second pass: edges. Function literals belong to the enclosing
	// declared function; calls at package scope (var initializers) have
	// no enclosing declaration and are skipped.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				caller := g.intern(fn)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					g.addCall(pkg, caller, call, concrete)
					return true
				})
			}
		}
	}
	return g
}

func (g *CallGraph) addCall(pkg *Package, caller *CGNode, call *ast.CallExpr, concrete []types.Type) {
	callee := calleeFunc(pkg.Info, call)
	if callee == nil {
		return // builtin, conversion, or call through a function value
	}
	recv := recvOf(callee)
	if recv == nil || !types.IsInterface(recv.Type()) {
		g.edge(caller, g.intern(callee), call)
		return
	}
	// Interface method: CHA resolution against every concrete named
	// type in scope that implements the receiver interface.
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, t := range concrete {
		impl := t
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(t)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, callee.Pkg(), callee.Name())
		if m, ok := obj.(*types.Func); ok {
			g.edge(caller, g.intern(m), call)
		}
	}
}

func (g *CallGraph) edge(caller, callee *CGNode, call *ast.CallExpr) {
	for _, e := range caller.Out {
		if e.Callee == callee && e.Call == call {
			return
		}
	}
	e := &CGEdge{Caller: caller, Callee: callee, Call: call}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// recvOf returns fn's receiver variable, or nil for package functions.
func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// concreteTypes collects every non-interface named type declared in
// pkgs, sorted by package path then name, as the CHA candidate set.
func concreteTypes(pkgs []*Package) []types.Type {
	var out []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if types.IsInterface(tn.Type()) {
				continue
			}
			out = append(out, tn.Type())
		}
	}
	return out
}
