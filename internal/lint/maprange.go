package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MaprangeAnalyzer guards the determinism of everything the tools emit:
// Go randomizes map iteration order, so a range over a map may not feed
// an order-sensitive sink — writing to an io.Writer (fmt.Fprint*,
// Write* methods), inserting into the insertion-ordered metrics
// registry, or appending to a slice the function returns — unless the
// collected slice is sorted before it escapes. Aggregations that are
// order-insensitive (integer sums, min/max) pass untouched.
var MaprangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "map iteration feeding emitted output (Fprint*/Write*/metrics.Set/returned slices) must be sorted first",
	Run:  runMaprange,
}

func runMaprange(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMaprangeFunc(p, fd)
		}
	}
}

func checkMaprangeFunc(p *Pass, fd *ast.FuncDecl) {
	returned := returnedObjects(p.Pkg.Info, fd)
	forEachMapRange(p.Pkg.Info, fd.Body, func(rng *ast.RangeStmt) {
		checkMapLoop(p, fd, rng, returned)
	})
}

// forEachMapRange calls f on every range-over-map statement in body,
// nested ones included.
func forEachMapRange(info *types.Info, body *ast.BlockStmt, f func(*ast.RangeStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok {
			if t := info.TypeOf(rng.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					f(rng)
				}
			}
		}
		return true
	})
}

// checkMapLoop looks for order-sensitive sinks inside one map-range body.
func checkMapLoop(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, returned map[types.Object]bool) {
	info := p.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Sinks 1 and 2: direct prints and writes, and the
		// insertion-ordered metrics registry.
		if msg, ok := emissionSink(info, call); ok {
			p.Reportf(call.Pos(), "%s", msg)
			return true
		}
		// Sink 3: append to a slice the function returns, unless it is
		// sorted after the loop and before it escapes.
		if id, okID := ast.Unparen(call.Fun).(*ast.Ident); okID && id.Name == "append" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || len(call.Args) == 0 {
				return true
			}
			target, okT := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !okT {
				return true
			}
			obj := objOf(info, target)
			if obj == nil || !returned[obj] {
				return true
			}
			if !sortedAfter(info, fd, rng, obj) {
				p.Reportf(call.Pos(), "append to returned slice %q inside map iteration leaks map order; sort it before returning or iterate over sorted keys", target.Name)
			}
		}
		return true
	})
}

// emissionSink reports whether call emits output in call order — an
// fmt print, a Write* method, or a Set/Add on the insertion-ordered
// metrics registry — and, if so, maprange's finding for it inside a map
// range.
func emissionSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if pk := fn.Pkg(); pk != nil && pk.Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return fmt.Sprintf("fmt.%s inside map iteration emits in map order; iterate over sorted keys", fn.Name()), true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	name := fn.Name()
	if strings.HasPrefix(name, "Write") {
		return fmt.Sprintf("%s inside map iteration writes in map order; iterate over sorted keys", name), true
	}
	if (name == "Set" || name == "Add") && recvIsMetricsRegistry(sig) {
		return fmt.Sprintf("metrics.Registry.%s inside map iteration fixes registry order by map order; iterate over sorted keys", name), true
	}
	return "", false
}

// recvIsMetricsRegistry reports whether a method's receiver is the
// dpml/internal/metrics Registry.
func recvIsMetricsRegistry(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Path() == "dpml/internal/metrics"
}

// returnedObjects collects the objects a function's return statements
// mention, plus its named results — the values whose order a caller can
// observe.
func returnedObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, fld := range fd.Type.Results.List {
			for _, name := range fld.Names {
				if o := info.Defs[name]; o != nil {
					out[o] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, okID := ast.Unparen(res).(*ast.Ident); okID {
				if o := objOf(info, id); o != nil {
					out[o] = true
				}
			}
		}
		return true
	})
	return out
}

// sortedAfter reports whether obj is passed to a sort.*/slices.Sort*
// call positioned after the range statement — the "collect keys, sort,
// then emit" idiom.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg, name := fn.Pkg().Path(), fn.Name()
		isSort := (pkg == "sort" && (name == "Sort" || name == "Stable" || name == "Slice" ||
			name == "SliceStable" || name == "Ints" || name == "Strings" || name == "Float64s")) ||
			(pkg == "slices" && token.IsIdentifier(name) && len(name) >= 4 && name[:4] == "Sort")
		if !isSort || len(call.Args) == 0 {
			return true
		}
		if id, okID := ast.Unparen(call.Args[0]).(*ast.Ident); okID && objOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
