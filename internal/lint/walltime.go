package lint

import (
	"go/ast"
	"strings"
)

// WalltimeAnalyzer enforces virtual-time purity: the simulator's results
// are bit-reproducible only because nothing on the sim/fabric/mpi/core
// path can observe the host clock. Wall-clock reads are confined to the
// measurement harness (internal/bench) and the CLI drivers under cmd/.
var WalltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads (time.Now/Since/Sleep/After/...) outside internal/bench and cmd",
	Run:  runWalltime,
}

// walltimeExempt lists import-path prefixes allowed to touch the host
// clock.
var walltimeExempt = []string{
	"dpml/internal/bench",
	"dpml/cmd/",
}

// walltimeBanned are the package time functions that observe or wait on
// the host clock. Pure constructors and conversions (time.Duration,
// time.Unix, ParseDuration) stay legal everywhere.
var walltimeBanned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runWalltime(p *Pass) {
	for _, prefix := range walltimeExempt {
		if p.Pkg.Path == strings.TrimSuffix(prefix, "/") || strings.HasPrefix(p.Pkg.Path, prefix) {
			return
		}
	}
	p.inspect(func(n ast.Node) bool {
		sel, okSel := n.(*ast.SelectorExpr)
		if !okSel {
			return true
		}
		path, name, ok := pkgSelector(p.Pkg.Info, sel)
		if ok && path == "time" && walltimeBanned[name] {
			p.Reportf(n.Pos(), "time.%s reads the host clock; virtual-time packages must stay wall-clock-free (only internal/bench and cmd may)", name)
		}
		return true
	})
}
