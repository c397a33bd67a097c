package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// owner.go is the LP-ownership model shared by the lpown and sendpath
// analyzers: the //dpml:owner annotation index, the field-mutability
// scan, and the context-classification engine that decides, for every
// function and registered event callback in the module, which LP class
// (node or net) it can execute under and why.
//
// Ownership is declared next to the data it protects:
//
//	//dpml:owner net
//	type Network struct {
//		...
//		failed bool //dpml:owner shared  (field-level override)
//	}
//
// A struct annotation assigns every field (including fields of inline
// anonymous structs) to the class; a field comment overrides it.
// "shared" means cross-class access is deliberate and externally
// synchronized — those fields are exempt from the access checks.
// //dpml:minlookahead marks a function, method, constant, variable, or
// field whose value is guaranteed ≥ the coordinator lookahead; the
// lpown delay prover accepts exactly these quantities (and sums
// containing them) as cross-LP AfterOn delays.
//
// Execution contexts are classified from roots the kernel API makes
// explicit: a func literal passed to AfterNet runs on the net LP; one
// passed to Spawn/SpawnOn runs as a proc on a node LP; AfterOn/AtOn
// callbacks run on the LP their first argument names (treated as net
// when the expression mentions the net LP, node otherwise); a step
// passed to Proc.RunSteps runs as its proc, on a node LP, on whichever
// stack the kernel calls it from. A callback registered through a
// struct field (a pooled record that builds its callbacks once) roots
// every func literal, or method value, stored into that field the same
// way; a method value registered directly roots its method. Declared
// functions are seeded node when they take a *sim.Proc parameter
// (procs exist only on node LPs) or are methods on a node-owned
// struct. Classes then propagate along static call edges —
// literal bodies are boundaries, so a callback's class never leaks into
// its registering function or vice versa. Each classification keeps a
// witness chain back to its root so findings can print the full
// interprocedural path.

// LP ownership classes.
const (
	classNode   = "node"
	classNet    = "net"
	classShared = "shared"
)

// Directive prefixes (suppressPrefix, the third //dpml: marker, lives
// in suppress.go).
const (
	ownerPrefix = "//dpml:owner"
	minLAPrefix = "//dpml:minlookahead"
)

// annotBad is a malformed or misplaced annotation; lpown reports these
// in target packages so a typo is a finding, never silence.
type annotBad struct {
	pkg *Package
	pos token.Pos
	msg string
}

// ctxStep records how a unit acquired a class: a seed (reason set) or
// propagation from a caller (from set).
type ctxStep struct {
	reason string
	from   *unit
}

type unitEdge struct {
	to  *unit
	pos token.Pos
}

// unit is one classification subject: a declared function, or a func
// literal rooted by a kernel registration call.
type unit struct {
	fn      *types.Func  // declared functions
	lit     *ast.FuncLit // rooted literals
	body    *ast.BlockStmt
	pkg     *Package
	name    string
	ctor    bool
	classes map[string]*ctxStep
	out     []unitEdge
}

func (u *unit) seed(class, reason string) {
	if u.classes[class] == nil {
		u.classes[class] = &ctxStep{reason: reason}
	}
}

// sortedClasses returns the unit's classes in deterministic order.
func sortedClasses(u *unit) []string {
	out := make([]string, 0, len(u.classes))
	for c := range u.classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ownership is the full model, built once per Module and shared by the
// analyzers that need it.
type ownership struct {
	fset        *token.FileSet
	fieldClass  map[*types.Var]string // annotated field -> owning class
	fieldOwner  map[*types.Var]string // annotated field -> struct display name
	structClass map[*types.TypeName]string
	minLA       map[types.Object]bool
	mutable     map[*types.Var]bool // fields assigned outside constructors
	bad         []annotBad

	units   []*unit
	unitOf  map[*types.Func]*unit
	litUnit map[*ast.FuncLit]*unit
}

func buildOwnership(m *Module) *ownership {
	o := &ownership{
		fieldClass:  map[*types.Var]string{},
		fieldOwner:  map[*types.Var]string{},
		structClass: map[*types.TypeName]string{},
		minLA:       map[types.Object]bool{},
		mutable:     map[*types.Var]bool{},
		unitOf:      map[*types.Func]*unit{},
		litUnit:     map[*ast.FuncLit]*unit{},
	}
	if len(m.All) > 0 {
		o.fset = m.All[0].Fset
	}
	for _, pkg := range m.All {
		o.indexAnnotations(pkg)
	}
	for _, pkg := range m.All {
		o.scanMutability(pkg)
	}
	o.buildUnits(m)
	o.propagate()
	return o
}

func (o *ownership) badf(pkg *Package, pos token.Pos, format string, args ...any) {
	o.bad = append(o.bad, annotBad{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// directiveText matches a //dpml: marker exactly: the prefix must be
// followed by nothing or whitespace, so //dpml:ownership is not
// //dpml:owner. It returns the trimmed remainder.
func directiveText(text, prefix string) (string, bool) {
	rest, found := strings.CutPrefix(text, prefix)
	if !found {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// directive scans comment groups in order for the first matching
// marker, returning its remainder and the comment that carried it.
func directive(prefix string, groups ...*ast.CommentGroup) (string, *ast.Comment) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, ok := directiveText(c.Text, prefix); ok {
				return rest, c
			}
		}
	}
	return "", nil
}

// parseOwnerClass extracts the LP class from a directive remainder; the
// first word must be node, net, or shared (free text may follow).
func parseOwnerClass(rest string) (string, bool) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	switch fields[0] {
	case classNode, classNet, classShared:
		return fields[0], true
	}
	return fields[0], false
}

// indexAnnotations collects //dpml:owner and //dpml:minlookahead
// markers from one package, recording malformed and misplaced ones.
func (o *ownership) indexAnnotations(pkg *Package) {
	for _, f := range pkg.Files {
		consumed := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if _, c := directive(minLAPrefix, d.Doc); c != nil {
					consumed[c] = true
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						o.minLA[fn] = true
					}
				}
				if _, c := directive(ownerPrefix, d.Doc); c != nil {
					consumed[c] = true
					o.badf(pkg, c.Pos(), "//dpml:owner belongs on a struct type or field, not a function")
				}
			case *ast.GenDecl:
				o.indexGenDecl(pkg, d, consumed)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if consumed[c] {
					continue
				}
				if _, ok := directiveText(c.Text, ownerPrefix); ok {
					o.badf(pkg, c.Pos(), "misplaced //dpml:owner: it must be the doc or line comment of a struct type or one of its fields")
				} else if _, ok := directiveText(c.Text, minLAPrefix); ok {
					o.badf(pkg, c.Pos(), "misplaced //dpml:minlookahead: it must annotate a function, constant, variable, or struct field")
				}
			}
		}
	}
}

func (o *ownership) indexGenDecl(pkg *Package, d *ast.GenDecl, consumed map[*ast.Comment]bool) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			groups := []*ast.CommentGroup{s.Doc, s.Comment}
			if len(d.Specs) == 1 {
				groups = append(groups, d.Doc)
			}
			class := ""
			if rest, c := directive(ownerPrefix, groups...); c != nil {
				consumed[c] = true
				cl, ok := parseOwnerClass(rest)
				switch {
				case !ok && cl == "":
					o.badf(pkg, c.Pos(), "//dpml:owner without an LP class (want node, net, or shared)")
				case !ok:
					o.badf(pkg, c.Pos(), "//dpml:owner %s: unknown LP class (want node, net, or shared)", cl)
				default:
					if _, isStruct := s.Type.(*ast.StructType); !isStruct {
						o.badf(pkg, c.Pos(), "//dpml:owner on non-struct type %s", s.Name.Name)
					} else {
						class = cl
					}
				}
			}
			if _, c := directive(minLAPrefix, groups...); c != nil {
				consumed[c] = true
				o.badf(pkg, c.Pos(), "misplaced //dpml:minlookahead on a type; annotate the field or function instead")
			}
			if st, isStruct := s.Type.(*ast.StructType); isStruct {
				if class != "" {
					if tn, ok := pkg.Info.Defs[s.Name].(*types.TypeName); ok {
						o.structClass[tn] = class
					}
				}
				owner := pkg.Types.Name() + "." + s.Name.Name
				o.walkStructFields(pkg, st, class, owner, consumed)
			}
		case *ast.ValueSpec:
			groups := []*ast.CommentGroup{s.Doc, s.Comment}
			if len(d.Specs) == 1 {
				groups = append(groups, d.Doc)
			}
			if _, c := directive(minLAPrefix, groups...); c != nil {
				consumed[c] = true
				for _, name := range s.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						o.minLA[obj] = true
					}
				}
			}
			if _, c := directive(ownerPrefix, groups...); c != nil {
				consumed[c] = true
				o.badf(pkg, c.Pos(), "//dpml:owner belongs on a struct type or field, not a value")
			}
		}
	}
}

// walkStructFields assigns class to every named field (class may be ""
// for unannotated structs — field markers still apply), honours
// field-level overrides, and recurses into inline anonymous structs.
// Embedded fields are skipped: ownership does not flow through
// embedding (a documented limitation; none of the annotated types
// embed).
func (o *ownership) walkStructFields(pkg *Package, st *ast.StructType, class, owner string, consumed map[*ast.Comment]bool) {
	for _, fld := range st.Fields.List {
		fclass := class
		if rest, c := directive(ownerPrefix, fld.Doc, fld.Comment); c != nil {
			consumed[c] = true
			cl, ok := parseOwnerClass(rest)
			switch {
			case !ok && cl == "":
				o.badf(pkg, c.Pos(), "//dpml:owner without an LP class (want node, net, or shared)")
			case !ok:
				o.badf(pkg, c.Pos(), "//dpml:owner %s: unknown LP class (want node, net, or shared)", cl)
			default:
				fclass = cl
			}
		}
		if _, c := directive(minLAPrefix, fld.Doc, fld.Comment); c != nil {
			consumed[c] = true
			for _, name := range fld.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					o.minLA[v] = true
				}
			}
		}
		for _, name := range fld.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok && fclass != "" {
				o.fieldClass[v] = fclass
				o.fieldOwner[v] = owner
			}
		}
		if inner, ok := fld.Type.(*ast.StructType); ok {
			o.walkStructFields(pkg, inner, fclass, owner, consumed)
		}
	}
}

// scanMutability records every field assigned through a selector
// outside constructor-shaped functions (New*/new*/init). Fields only
// ever set by composite literals or inside constructors are immutable
// at run time, so cross-class reads of them are harmless; writes are
// always checked. Aliasing through &x.f is not modelled.
func (o *ownership) scanMutability(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctor := isConstructorName(fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range st.Lhs {
						o.markFieldWrite(pkg, lhs, ctor)
					}
				case *ast.IncDecStmt:
					o.markFieldWrite(pkg, st.X, ctor)
				}
				return true
			})
		}
	}
}

func (o *ownership) markFieldWrite(pkg *Package, lhs ast.Expr, ctor bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	if v, ok := s.Obj().(*types.Var); ok && !ctor {
		o.mutable[v] = true
	}
}

// buildUnits creates a unit per declared function (from the call
// graph, so order is deterministic) and per rooted callback literal,
// seeds classes, then wires literal-boundary-aware call edges.
func (o *ownership) buildUnits(m *Module) {
	g := m.Graph
	for _, n := range g.Nodes() {
		if n.Decl == nil {
			continue
		}
		u := &unit{
			fn: n.Fn, body: n.Decl.Body, pkg: n.Pkg, name: n.Name(),
			ctor:    isConstructorName(n.Fn.Name()),
			classes: map[string]*ctxStep{},
		}
		o.unitOf[n.Fn] = u
		o.units = append(o.units, u)
	}
	for _, n := range g.Nodes() {
		if n.Decl == nil {
			continue
		}
		u := o.unitOf[n.Fn]
		if hasProcParam(n.Fn) {
			u.seed(classNode, "runs as a proc body: *sim.Proc parameter")
		}
		if recv := recvOf(n.Fn); recv != nil {
			if tn := baseTypeName(recv.Type()); tn != nil && o.structClass[tn] == classNode {
				u.seed(classNode, "method on node-owned "+tn.Name())
			}
		}
	}
	// A callback registered through a struct field (a record that
	// builds its callbacks once and reuses them) roots every literal
	// stored into that field, as if the literal were registered itself.
	type fieldReg struct{ class, how string }
	fieldRegs := map[*types.Var][]fieldReg{}
	rootMethod := func(fn *types.Func, class, how string) {
		if u := o.unitOf[fn.Origin()]; u != nil {
			u.seed(class, fmt.Sprintf("registered on the %s LP via %s", class, how))
		}
	}
	root := func(p *Package, lit *ast.FuncLit, at token.Pos, what, class, how string) {
		u := o.litUnit[lit]
		if u == nil {
			pos := o.fset.Position(at)
			u = &unit{
				lit: lit, body: lit.Body, pkg: p,
				name:    fmt.Sprintf("the callback %sat %s:%d", what, pos.Filename, pos.Line),
				classes: map[string]*ctxStep{},
			}
			o.litUnit[lit] = u
			o.units = append(o.units, u)
		}
		u.seed(class, fmt.Sprintf("registered on the %s LP via %s", class, how))
	}
	for _, pkg := range m.All {
		p := pkg
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, class, how := o.registration(p, call)
				if lit, ok := fn.(*ast.FuncLit); ok {
					root(p, lit, call.Pos(), "", class, how)
				} else if m := methodValue(p.Info, fn); m != nil {
					rootMethod(m, class, how)
				} else if v := fieldVar(p.Info, fn); v != nil {
					fieldRegs[v] = append(fieldRegs[v], fieldReg{class, how})
				}
				return true
			})
		}
	}
	for _, pkg := range m.All {
		p := pkg
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					v := fieldVar(p.Info, lhs)
					if v == nil {
						continue
					}
					rhs := ast.Unparen(as.Rhs[i])
					for _, r := range fieldRegs[v] {
						if lit, ok := rhs.(*ast.FuncLit); ok {
							root(p, lit, as.Pos(), "stored in "+v.Name()+" ", r.class, r.how)
						} else if m := methodValue(p.Info, rhs); m != nil {
							rootMethod(m, r.class, r.how)
						}
					}
				}
				return true
			})
		}
	}
	for _, u := range o.units {
		uu := u
		o.inspectUnit(uu, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(uu.pkg.Info, call)
			if fn == nil {
				return true
			}
			if to := o.unitOf[fn.Origin()]; to != nil {
				uu.out = append(uu.out, unitEdge{to: to, pos: call.Pos()})
			}
			return true
		})
	}
}

// inspectUnit walks a unit's body without descending into rooted
// literals — those are units of their own, with their own classes.
func (o *ownership) inspectUnit(u *unit, f func(ast.Node) bool) {
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && o.litUnit[lit] != nil {
			return false
		}
		return f(n)
	})
}

// registration recognizes kernel calls that register a callback on a
// known LP class, returning the callback expression, its class, and the
// method name for the witness message.
func (o *ownership) registration(pkg *Package, call *ast.CallExpr) (ast.Expr, string, string) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return nil, "", ""
	}
	recv := recvOf(fn)
	if recv == nil {
		return nil, "", ""
	}
	tn := baseTypeName(recv.Type())
	if isSimType(tn, "Proc") && fn.Name() == "RunSteps" && len(call.Args) == 1 {
		return ast.Unparen(call.Args[0]), classNode, fn.Name()
	}
	if !isSimType(tn, "Kernel") {
		return nil, "", ""
	}
	argIdx, class := 0, classNode
	switch fn.Name() {
	case "AfterNet":
		argIdx, class = 1, classNet
	case "AfterOn", "AtOn":
		argIdx = 2
		if len(call.Args) > 0 && exprMentionsNet(call.Args[0]) {
			class = classNet
		}
	case "Spawn":
		argIdx = 1
	case "SpawnOn":
		argIdx = 2
	default:
		return nil, "", ""
	}
	if argIdx >= len(call.Args) {
		return nil, "", ""
	}
	return ast.Unparen(call.Args[argIdx]), class, fn.Name()
}

// methodValue returns the method that e takes as a value (x.m, not a
// call), or nil.
func methodValue(info *types.Info, e ast.Expr) *types.Func {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		fn, _ := s.Obj().(*types.Func)
		return fn
	}
	return nil
}

// fieldVar returns the struct field that e selects, or nil.
func fieldVar(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}

// propagate pushes classes along call edges to a fixpoint, recording
// the predecessor so witness chains can be reconstructed.
func (o *ownership) propagate() {
	for changed := true; changed; {
		changed = false
		for _, u := range o.units {
			for _, class := range sortedClasses(u) {
				for _, e := range u.out {
					if e.to.classes[class] == nil {
						e.to.classes[class] = &ctxStep{from: u}
						changed = true
					}
				}
			}
		}
	}
}

// chain renders the witness path explaining why u carries class:
// "root (reason) → a → b → u".
func (o *ownership) chain(u *unit, class string) string {
	var rev []*unit
	cur := u
	for cur.classes[class] != nil && cur.classes[class].from != nil {
		rev = append(rev, cur)
		cur = cur.classes[class].from
		if len(rev) > 1024 { // cannot cycle: from-chains point at earlier fixpoint states
			break
		}
	}
	s := cur.name
	if step := cur.classes[class]; step != nil && step.reason != "" {
		s += " (" + step.reason + ")"
	}
	for i := len(rev) - 1; i >= 0; i-- {
		s += " → " + rev[i].name
	}
	return s
}

// exprMentionsNet reports whether an LP-index expression names the net
// LP (NetLP()/netLP/NetKernel in any position).
func exprMentionsNet(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch id.Name {
			case "NetLP", "netLP", "netlp", "NetKernel":
				found = true
			}
		}
		return !found
	})
	return found
}

func isConstructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// baseTypeName returns the named type behind t (derefing one pointer),
// or nil.
func baseTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// isSimType reports whether tn is the named type sim.<name> of the
// simulation kernel package.
func isSimType(tn *types.TypeName, name string) bool {
	return tn != nil && tn.Name() == name && tn.Pkg() != nil && tn.Pkg().Path() == "dpml/internal/sim"
}

func hasProcParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isSimType(baseTypeName(params.At(i).Type()), "Proc") {
			return true
		}
	}
	return false
}

// lpCheckedPkg gates the ownership and send-path access checks to the
// packages that carry the LP discipline (the kernel package itself is
// trusted — it is the mechanism being protected) plus the analyzer's
// own fixtures.
func lpCheckedPkg(path, fixture string) bool {
	for _, m := range []string{"dpml/internal/core", "dpml/internal/fabric", "dpml/internal/mpi"} {
		if path == m || strings.HasPrefix(path, m+"/") {
			return true
		}
	}
	return strings.Contains(path, "testdata/src/"+fixture)
}

// kernelClass resolves which LP class owns the kernel, or event set,
// an expression evaluates to: NetKernel() is the net kernel,
// KernelFor(...) and (*sim.Proc).Kernel() are node kernels, a Kernel
// method on an annotated struct follows the struct, a set made by
// Kernel.NewEventSet follows its kernel, an annotated field follows the
// field, and a local variable follows its single defining assignment.
// "" means unknown (and is never reported on).
func (o *ownership) kernelClass(pkg *Package, e ast.Expr, depth int) string {
	if depth == 0 {
		return ""
	}
	e = ast.Unparen(e)
	info := pkg.Info
	switch x := e.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, x)
		if fn == nil {
			return ""
		}
		switch fn.Name() {
		case "NetKernel":
			return classNet
		case "KernelFor":
			return classNode
		case "NewEventSet":
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if recv := recvOf(fn); ok && recv != nil && isSimType(baseTypeName(recv.Type()), "Kernel") {
				return o.kernelClass(pkg, sel.X, depth-1)
			}
		case "Kernel":
			recv := recvOf(fn)
			if recv == nil {
				return ""
			}
			tn := baseTypeName(recv.Type())
			if isSimType(tn, "Proc") {
				return classNode
			}
			if tn != nil {
				return o.structClass[tn]
			}
		}
		return ""
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return o.fieldClass[v]
			}
		}
		return ""
	case *ast.Ident:
		v, ok := objOf(info, x).(*types.Var)
		if !ok {
			return ""
		}
		if rhs := singleDefine(pkg, v); rhs != nil {
			return o.kernelClass(pkg, rhs, depth-1)
		}
	}
	return ""
}

// singleDefine finds the unique := right-hand side defining v in its
// package, or nil when there is none or more than one assignment.
func singleDefine(pkg *Package, v *types.Var) ast.Expr {
	var rhs ast.Expr
	count := 0
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, okID := lhs.(*ast.Ident)
				if !okID || pkg.Info.Defs[id] != v && objOf(pkg.Info, id) != v {
					continue
				}
				count++
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else {
					rhs = nil
				}
			}
			return true
		})
	}
	if count != 1 {
		return nil
	}
	return rhs
}
