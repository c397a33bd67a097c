package lint

import (
	"go/ast"
	"go/types"
)

// SpanpairAnalyzer enforces the PR 4 tiling invariant's structural
// precondition: every trace.BeginCollective/BeginSpan must be End-ed on
// every path through the function, either by a dominating End call or by
// a defer. A leaked span corrupts the per-rank phase stack — later leaf
// events get stamped with a phase that never closed, and the
// "per-rank Σ phase == Σ collective" property test can no longer hold.
//
// The analysis is a lightweight statement-level path walk: from each
// Begin, every path to the function's exit (or to a reassignment of the
// span variable) must pass an End. Spans that escape — passed to another
// function, stored, returned, or captured by a non-End closure — are
// assumed tracked by their new owner. An End inside a function-literal
// call argument also discharges the obligation: that is the sharded
// kernel's handoff pattern, where a span begun on one shard is End-ed by
// an event callback firing in another LP's context.
var SpanpairAnalyzer = &Analyzer{
	Name: "spanpair",
	Doc:  "every trace.BeginCollective/BeginSpan must be End-ed (or deferred) on all paths",
	Run:  runSpanpair,
}

func runSpanpair(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					spanpairBody(p, fn.Body)
				}
			case *ast.FuncLit:
				spanpairBody(p, fn.Body)
			}
			return true
		})
	}
}

// isBeginCall reports whether call is trace.(*Recorder).BeginSpan or
// BeginCollective.
func isBeginCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "dpml/internal/trace" {
		return false
	}
	return fn.Name() == "BeginSpan" || fn.Name() == "BeginCollective"
}

// spanpairBody finds Begin obligations directly inside body (nested
// function literals are their own scopes and analyzed separately).
func spanpairBody(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isBeginCall(info, call) {
				p.Reportf(call.Pos(), "span discarded: the result of %s must be End-ed", beginName(info, call))
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				break
			}
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBeginCall(info, call) {
					continue
				}
				id, okID := s.Lhs[i].(*ast.Ident)
				if !okID {
					continue // stored into a field or element: escapes
				}
				if id.Name == "_" {
					p.Reportf(call.Pos(), "span assigned to _ is never End-ed")
					continue
				}
				obj := objOf(info, id)
				if obj == nil {
					continue
				}
				if !endedOnAllPaths(info, body, s, obj) {
					p.Reportf(call.Pos(), "span %q from %s is not End-ed on every path (add a dominating End or a defer)",
						id.Name, beginName(info, call))
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

func beginName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "Begin"
}

// path statuses for the statement walk.
const (
	stFall    = iota // fell off the statement list, obligation still open
	stEnded          // End reached (or the span escaped) on all paths here
	stMissing        // some path exits the function without End
)

// endedOnAllPaths checks the statements after the Begin assignment.
// The chain from the function body to the assignment lets the scan fall
// through nested blocks outward, matching Go's sequential execution.
func endedOnAllPaths(info *types.Info, body *ast.BlockStmt, begin ast.Stmt, v types.Object) bool {
	chain := stmtChain(body, begin)
	if chain == nil {
		return true // not directly in this body (inside a nested literal)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		switch scanStmts(info, chain[i].list, chain[i].idx+1, v) {
		case stEnded:
			return true
		case stMissing:
			return false
		}
	}
	return false // fell off the function's end without an End
}

type chainFrame struct {
	list []ast.Stmt
	idx  int
}

// stmtChain locates target within body's nested statement lists (not
// crossing function-literal boundaries), outermost frame first.
func stmtChain(body *ast.BlockStmt, target ast.Stmt) []chainFrame {
	var find func(list []ast.Stmt) []chainFrame
	find = func(list []ast.Stmt) []chainFrame {
		for i, s := range list {
			if s == target {
				return []chainFrame{{list, i}}
			}
			if s.Pos() > target.Pos() || s.End() < target.Pos() {
				continue
			}
			for _, inner := range childStmtLists(s) {
				if sub := find(inner); sub != nil {
					return append([]chainFrame{{list, i}}, sub...)
				}
			}
		}
		return nil
	}
	return find(body.List)
}

// childStmtLists returns the statement lists nested one level inside s,
// never descending into function literals.
func childStmtLists(s ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			out = append(out, e.List)
		case *ast.IfStmt:
			out = append(out, childStmtLists(e)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, childStmtLists(s.Stmt)...)
	}
	return out
}

// scanStmts walks list[from:] sequentially, deciding the obligation's
// fate for the span object v.
func scanStmts(info *types.Info, list []ast.Stmt, from int, v types.Object) int {
	for i := from; i < len(list); i++ {
		switch st := scanStmt(info, list[i], v); st {
		case stEnded, stMissing:
			return st
		case stStop:
			return stFall // break/continue/goto: rest of the list is unreachable
		}
	}
	return stFall
}

// stStop is an internal status: control left this statement list
// sideways (break/continue/goto), so scanning it further is meaningless.
const stStop = 3

func scanStmt(info *types.Info, s ast.Stmt, v types.Object) int {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isEndCall(info, call, v) {
				return stEnded
			}
			if isPanic(info, call) {
				return stEnded // path diverges
			}
			if closureEnds(info, call, v) {
				return stEnded // an event callback carries the End
			}
		}
	case *ast.DeferStmt:
		if deferEnds(info, s.Call, v) {
			return stEnded
		}
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && objOf(info, id) == v {
				return stMissing // reassigned before End: the old span leaks
			}
		}
	case *ast.ReturnStmt:
		if valueUse(info, s, v) {
			return stEnded // span escapes to the caller
		}
		return stMissing
	case *ast.IfStmt:
		b := scanStmts(info, s.Body.List, 0, v)
		e := stFall
		switch el := s.Else.(type) {
		case *ast.BlockStmt:
			e = scanStmts(info, el.List, 0, v)
		case *ast.IfStmt:
			e = scanStmt(info, el, v)
		}
		if b == stMissing || e == stMissing {
			return stMissing
		}
		if b == stEnded && e == stEnded {
			return stEnded
		}
		return stFall
	case *ast.ForStmt:
		if inner := scanStmts(info, s.Body.List, 0, v); inner == stMissing {
			return stMissing
		}
		return stFall // a loop may run zero times: End inside it does not dominate
	case *ast.RangeStmt:
		if inner := scanStmts(info, s.Body.List, 0, v); inner == stMissing {
			return stMissing
		}
		return stFall
	case *ast.SwitchStmt:
		return scanCases(info, s.Body.List, v)
	case *ast.TypeSwitchStmt:
		return scanCases(info, s.Body.List, v)
	case *ast.SelectStmt:
		return scanCases(info, s.Body.List, v)
	case *ast.BlockStmt:
		return scanStmts(info, s.List, 0, v)
	case *ast.LabeledStmt:
		return scanStmt(info, s.Stmt, v)
	case *ast.BranchStmt:
		return stStop
	}
	// Any other value use of v (call argument, closure capture, store)
	// transfers responsibility; assume the new owner Ends it.
	if valueUse(info, s, v) {
		return stEnded
	}
	return stFall
}

// scanCases combines switch/select clause bodies: every clause must End
// (with a default present) for the switch to discharge the obligation;
// any clause that exits without End is a leak.
func scanCases(info *types.Info, clauses []ast.Stmt, v types.Object) int {
	hasDefault := false
	allEnded := len(clauses) > 0
	for _, c := range clauses {
		var bodyList []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			bodyList = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			bodyList = cc.Body
			if cc.Comm == nil {
				hasDefault = true
			}
		default:
			continue
		}
		switch scanStmts(info, bodyList, 0, v) {
		case stMissing:
			return stMissing
		case stEnded:
		default:
			allEnded = false
		}
	}
	if allEnded && hasDefault {
		return stEnded
	}
	return stFall
}

func isEndCall(info *types.Info, call *ast.CallExpr, v types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && objOf(info, id) == v
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// deferEnds reports whether a deferred call Ends v: either directly
// (defer v.End(t)) or through a literal (defer func() { v.End(...) }()).
func deferEnds(info *types.Info, call *ast.CallExpr, v types.Object) bool {
	if isEndCall(info, call, v) {
		return true
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isEndCall(info, c, v) {
			found = true
		}
		return !found
	})
	return found
}

// closureEnds reports whether a function-literal argument of call Ends
// v at any nesting depth. This is the sharded kernel's span-handoff
// pattern: a span begun in one LP's context is End-ed inside an event
// callback scheduled on another LP — under a sharded coordinator, on a
// different goroutine entirely (k.AfterOn(dst, d, func() { sp.End(t) })).
// The End runs when the event fires in the destination's context, so the
// obligation is discharged here: the event owns it from this point on.
func closureEnds(info *types.Info, call *ast.CallExpr, v types.Object) bool {
	found := false
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && isEndCall(info, c, v) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// valueUse reports whether v is used as a value inside n: any mention
// that is not the receiver of a method call / field access. Receiver
// uses (v.End) keep the obligation local; value uses hand the span to
// someone else.
func valueUse(info *types.Info, n ast.Node, v types.Object) bool {
	recv := map[*ast.Ident]bool{}
	ast.Inspect(n, func(c ast.Node) bool {
		if sel, ok := c.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				recv[id] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && !recv[id] && objOf(info, id) == v {
			found = true
		}
		return !found
	})
	return found
}
