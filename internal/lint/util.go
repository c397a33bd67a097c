package lint

import (
	"go/ast"
	"go/types"
)

// pkgSelector reports whether expr is a selector on an imported package
// (like time.Now), returning the package path and selected name.
func pkgSelector(info *types.Info, expr ast.Expr) (path, name string, ok bool) {
	sel, okSel := expr.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// calleeFunc resolves a call's static callee to a *types.Func (package
// function or method), or nil for builtins, conversions, and indirect
// calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isFloat reports whether t's core type is a floating-point (or complex)
// basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// objOf returns the object an identifier resolves to, whether it is a
// use or a definition.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
