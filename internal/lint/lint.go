// Package lint is the repo's static-analysis framework: a small harness
// over the standard library's go/ast and go/types (the module is
// dependency-free, so no x/tools) plus eight repo-specific analyzers that
// prove the simulator's determinism and protocol invariants at compile
// time. The dynamic counterparts of these invariants — byte-identical
// results at any worker count and seeded fault plans — are only as
// strong as the last test run; the analyzers make the underlying
// disciplines unskippable:
//
//   - walltime: no module package reads the host clock
//   - globalrand: randomness flows from explicitly seeded sources only
//   - maprange: map iteration order never reaches emitted output
//   - waitcheck: every non-blocking MPI request is waited or discarded
//   - floateq: no ==/!= on floating-point operands in non-test code
//   - prio: event tiebreak keys are minted only by Kernel.nextPrio
//   - lpown: //dpml:owner-annotated state is touched only by its owning
//     LP class, and cross-LP delays are provably ≥ the lookahead
//   - sendpath: cross-LP communication uses AfterOn/AfterNet outbox
//     routing, never direct scheduling or wakes on another LP's kernel
//
// The first six run one package at a time; the last two are module
// passes over a CHA call graph (callgraph.go), so an access hidden
// behind any chain of helpers in any package is still found, with the
// call chain in the finding. realedit_test.go pins, for each analyzer,
// one edit to real code that it alone catches.
//
// Findings can be suppressed, one line at a time, with a
// "//dpml:allow <analyzer> -- reason" comment; the driver verifies every
// suppression is actually used, so stale allowances become findings
// themselves.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Finding is one reported violation, printed as "file:line: analyzer:
// message".
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check. Per-package analyzers set Run; whole-
// module analyzers (which need the call graph or cross-package bodies)
// set RunModule instead and are invoked once per driver run.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Pass)
	RunModule func(p *ModulePass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Module carries the whole-module context the interprocedural analyzers
// run against: the packages findings may be reported in (Targets), the
// full set of loaded module packages whose bodies are visible (All, a
// superset of Targets), and the call graph over All.
type Module struct {
	Targets []*Package
	All     []*Package
	Graph   *CallGraph

	own *ownership // lazily built, shared by lpown and sendpath
}

// ownership builds (once) the LP-ownership model over the module.
func (m *Module) ownership() *ownership {
	if m.own == nil {
		m.own = buildOwnership(m)
	}
	return m.own
}

// TargetPkg reports whether findings may be reported in pkg (module
// analyzers see every loaded package but only report in the requested
// ones, like per-package analyzers only run on requested packages).
func (m *Module) TargetPkg(pkg *Package) bool {
	for _, t := range m.Targets {
		if t == pkg {
			return true
		}
	}
	return false
}

// ModulePass carries one module analyzer's run.
type ModulePass struct {
	*Module
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos. Every loaded package shares the
// loader's FileSet, so any target package's resolves positions.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Targets[0].Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves a token.Pos for use inside finding messages
// (call-path steps, registration sites).
func (p *ModulePass) Position(pos token.Pos) token.Position {
	return p.Targets[0].Fset.Position(pos)
}

// Analyzers returns the full suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		GlobalrandAnalyzer,
		MaprangeAnalyzer,
		WaitcheckAnalyzer,
		FloateqAnalyzer,
		PrioAnalyzer,
		LpownAnalyzer,
		SendpathAnalyzer,
	}
}

// Run executes the analyzers over the packages, applies //dpml:allow
// suppressions, appends findings for unused or malformed suppressions,
// and returns everything sorted by position then analyzer name. Module
// analyzers see only pkgs; use RunModule to hand them dependency bodies.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunModule(pkgs, pkgs, analyzers)
}

// RunModule is Run with an explicit whole-module package set: findings
// are reported in targets only, but module analyzers (lpown, sendpath)
// build their call graph over all, so chains through helper packages
// outside the target set are still followed. all may be any superset of
// the targets' module-local dependency closure; the loader's Loaded
// method provides it.
func RunModule(targets, all []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range targets {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{Pkg: pkg, analyzer: a, findings: &findings})
		}
	}
	var mod *Module
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if mod == nil {
			mod = buildModule(targets, all)
		}
		a.RunModule(&ModulePass{Module: mod, analyzer: a, findings: &findings})
	}
	findings = applySuppressions(targets, analyzers, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// buildModule assembles the module context: the union of targets and
// all (deduplicated, sorted by import path for deterministic graph
// order) and the call graph over it.
func buildModule(targets, all []*Package) *Module {
	seen := map[string]*Package{}
	for _, p := range targets {
		seen[p.Path] = p
	}
	for _, p := range all {
		if _, ok := seen[p.Path]; !ok {
			seen[p.Path] = p
		}
	}
	union := make([]*Package, 0, len(seen))
	for _, p := range seen {
		union = append(union, p)
	}
	sort.Slice(union, func(i, j int) bool { return union[i].Path < union[j].Path })
	return &Module{Targets: targets, All: union, Graph: BuildCallGraph(union)}
}

// inspect walks every file of the pass's package.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
