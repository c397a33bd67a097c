package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// TaintflowAnalyzer generalizes walltime and globalrand from "no
// direct call in a marked package" to "no *transitive* call path":
// nothing reachable from dpml/internal/{sim,fabric,mpi,core} may hit
// the host clock, the process-global random generators, or a function
// that emits in map-iteration order — even when the forbidden call
// hides behind a chain of helpers in other packages. Findings carry
// the full witness path. Direct stdlib calls (path length 1) are left
// to walltime/globalrand, which already report them with tailored
// messages; taintflow owns everything deeper.
var TaintflowAnalyzer = &Analyzer{
	Name:      "taintflow",
	Doc:       "no transitive call path from sim/fabric/mpi/core into time.Now, global math/rand, or map-ordered emission",
	RunModule: runTaintflow,
}

// taintflowMarked are the virtual-time packages whose whole transitive
// call tree must stay deterministic.
var taintflowMarked = []string{
	"dpml/internal/core",
	"dpml/internal/fabric",
	"dpml/internal/mpi",
	"dpml/internal/sim",
}

func taintflowMarkedPkg(path string) bool {
	for _, m := range taintflowMarked {
		if path == m || strings.HasPrefix(path, m+"/") {
			return true
		}
	}
	// Fixture (and mutation-copy) packages; their helper subpackage
	// plays the out-of-tree accomplice and is deliberately unmarked.
	return strings.Contains(path, "testdata/src/taintflow") && !strings.Contains(path, "helper")
}

func runTaintflow(p *ModulePass) {
	g := p.Graph
	sinks := map[*CGNode]string{}
	for _, n := range g.Nodes() {
		if n.Decl == nil {
			fn := n.Fn
			pk := fn.Pkg()
			if pk == nil {
				continue
			}
			switch {
			case pk.Path() == "time" && recvOf(fn) == nil && walltimeBanned[fn.Name()]:
				sinks[n] = "time." + fn.Name() + " (the host clock)"
			case (pk.Path() == "math/rand" || pk.Path() == "math/rand/v2") && recvOf(fn) == nil && globalrandBanned[fn.Name()]:
				sinks[n] = "rand." + fn.Name() + " (process-global randomness)"
			}
			continue
		}
		if emitsInMapRange(n.Pkg.Info, n.Decl) {
			sinks[n] = "map-order-dependent emission in " + n.Name()
		}
	}
	if len(sinks) == 0 {
		return
	}
	next := reachSinks(g, sinks)
	ordered := make([]*CGNode, 0, len(sinks))
	for s := range sinks {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if sinks[ordered[i]] != sinks[ordered[j]] {
			return sinks[ordered[i]] < sinks[ordered[j]]
		}
		return ordered[i].Name() < ordered[j].Name()
	})
	for _, n := range g.Nodes() {
		if n.Decl == nil || !taintflowMarkedPkg(n.Pkg.Path) || !p.TargetPkg(n.Pkg) {
			continue
		}
		reach := next[n]
		if reach == nil {
			continue
		}
		for _, sink := range ordered {
			if sink == n || reach[sink] == nil {
				continue
			}
			path := witnessPath(next, n, sink)
			if len(path) == 0 {
				continue
			}
			if len(path) == 1 && sink.Decl == nil {
				continue // direct stdlib call: walltime/globalrand report it
			}
			p.Reportf(path[0].Call.Pos(), "%s transitively reaches %s: %s; virtual-time code must stay deterministic through every helper",
				n.Name(), sinks[sink], pathString(n, path))
		}
	}
}

// emitsInMapRange reports whether fd makes an emissionSink call inside
// a range over a map. Such a function is a determinism sink for every
// caller.
func emitsInMapRange(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	forEachMapRange(info, fd.Body, func(rng *ast.RangeStmt) {
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !found {
				_, found = emissionSink(info, call)
			}
			return !found
		})
	})
	return found
}
