package lint

import "go/ast"

// WalltimeAnalyzer enforces virtual-time purity: the simulator's results
// are bit-reproducible only because no module package observes the host
// clock. The one legitimate read, a measurement harness timing its own
// run, carries a //dpml:allow walltime justification at the read.
var WalltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads (time.Now/Since/Sleep/After/...) without a //dpml:allow",
	Run:  runWalltime,
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
	p.inspect(func(n ast.Node) bool {
		sel, okSel := n.(*ast.SelectorExpr)
		if !okSel {
			return true
		}
		path, name, ok := pkgSelector(p.Pkg.Info, sel)
		if ok && path == "time" && walltimeBanned[name] {
			p.Reportf(n.Pos(), "time.%s reads the host clock; virtual-time code must stay wall-clock-free (justify a measurement read with //dpml:allow walltime -- reason)", name)
		}
		return true
	})
}
