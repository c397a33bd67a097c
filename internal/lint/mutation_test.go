package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests prove the interprocedural checks are not trivially
// green: a clean baseline package produces zero findings, then a single
// injected violation — hidden behind helper hops — must be caught. The
// packages load under testdata/src/<name>_mut import paths so the
// analyzers treat them exactly like the real fixtures.

// loadMutant writes src into a temp directory and loads it under
// importPath with the shared fixture loader.
func loadMutant(t *testing.T, importPath, src string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mut.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func mutantFindings(t *testing.T, pkg *Package, analyzers []*Analyzer) []Finding {
	t.Helper()
	return RunModule([]*Package{pkg}, fixtureLoader(t).Loaded(), analyzers)
}

// TestMutationTaintflow injects a host-clock read two helper hops below
// an entry point — the mutation the deleted taintflow analyzer reported
// once per caller — and requires the whole suite to report it exactly
// once, at the read, as walltime's finding.
func TestMutationTaintflow(t *testing.T) {
	const clean = `package taintmut

// Step advances deterministically through two helpers.
func Step() int64 { return hop1() }

func hop1() int64 { return hop2() }

func hop2() int64 { return 42 }
`
	base := loadMutant(t, "dpml/internal/lint/testdata/src/taintflow_mut/base", clean)
	if fs := mutantFindings(t, base, Analyzers()); len(fs) != 0 {
		t.Fatalf("clean baseline produced findings: %v", fs)
	}

	mutated := strings.Replace(clean,
		"func hop2() int64 { return 42 }",
		"func hop2() int64 { return time.Now().UnixNano() }", 1)
	mutated = strings.Replace(mutated, "package taintmut\n",
		"package taintmut\n\nimport \"time\"\n", 1)
	hot := loadMutant(t, "dpml/internal/lint/testdata/src/taintflow_mut/hot", mutated)
	fs := mutantFindings(t, hot, Analyzers())
	if len(fs) != 1 {
		t.Fatalf("want 1 finding for the injected clock read, got %d: %v", len(fs), fs)
	}
	readLine := 1 + strings.Count(mutated[:strings.Index(mutated, "func hop2")], "\n")
	if f := fs[0]; f.Analyzer != "walltime" || f.Pos.Line != readLine || !strings.Contains(f.Message, "time.Now") {
		t.Fatalf("want walltime's time.Now finding at line %d, got %s", readLine, f)
	}
}

// TestMutationLpown flips a node-LP callback registration to the net
// LP and requires lpown to trace the wrong-class write through the
// helper, from registration site to field access.
func TestMutationLpown(t *testing.T) {
	const clean = `package lpownmut

import "dpml/internal/sim"

// box is per-node progress state.
//
//dpml:owner node
type box struct{ pending int }

// arm registers the bump on the owning LP.
func arm(k *sim.Kernel, b *box) {
	k.Spawn("bump", func(p *sim.Proc) { poke(b) })
}

func poke(b *box) { b.pending = 1 }
`
	lpown := one(t, "lpown")
	base := loadMutant(t, "dpml/internal/lint/testdata/src/lpown_mut/base", clean)
	if fs := mutantFindings(t, base, lpown); len(fs) != 0 {
		t.Fatalf("clean baseline produced findings: %v", fs)
	}

	mutated := strings.Replace(clean,
		`k.Spawn("bump", func(p *sim.Proc) { poke(b) })`,
		`k.AfterNet(0, func() { poke(b) })`, 1)
	hot := loadMutant(t, "dpml/internal/lint/testdata/src/lpown_mut/hot", mutated)
	fs := mutantFindings(t, hot, lpown)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding for the injected cross-LP write, got %d: %v", len(fs), fs)
	}
	msg := fs[0].Message
	for _, part := range []string{
		"field lpownmut.box.pending is node-owned but written from a net-LP context",
		"(registered on the net LP via AfterNet) → lpownmut.poke",
	} {
		if !strings.Contains(msg, part) {
			t.Fatalf("finding lacks %q: %s", part, msg)
		}
	}
}
