package main

import (
	"bytes"
	"strings"
	"testing"

	"dpml/internal/lint"
)

// fixture is the floateq testdata package, addressed by import path so
// the tests are independent of the working directory inside the module.
const fixture = "dpml/internal/lint/testdata/src/floateq"

func TestFindingsExitNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "floateq: == on floating-point operands") {
		t.Errorf("stdout missing finding text:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stderr missing finding count: %s", errb.String())
	}
}

func TestCleanExitZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"dpml/internal/sim"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run should print nothing, got:\n%s", out.String())
	}
}

// TestShardCoordinatorWalltimeGlobalrandClean pins the sharded kernel's
// determinism preconditions. The window-barrier coordinator runs real
// goroutines, which makes host-time barrier timeouts and jittered
// backoff the tempting bugs: either would leak wall-clock or global-RNG
// state into the event order and silently break bit-identity across
// -shards. TestInterprocCleanTree proves the virtual-time path has no
// walltime or globalrand finding; this test proves it gets there with
// zero allowances, so no inline //dpml:allow can buy an exception.
func TestShardCoordinatorWalltimeGlobalrandClean(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, ip := range []string{
		"dpml/internal/sim",
		"dpml/internal/fabric",
		"dpml/internal/mpi",
		"dpml/internal/core",
	} {
		pkg, err := loader.Load(ip)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, sup := range lint.Suppressions(pkgs) {
		if sup.Analyzer == "walltime" || sup.Analyzer == "globalrand" {
			t.Errorf("%s:%d: virtual-time path allows %s (%s)", sup.Pos.Filename, sup.Pos.Line, sup.Analyzer, sup.Reason)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	names := []string{"walltime", "globalrand", "maprange", "waitcheck", "floateq",
		"prio", "lpown", "sendpath"}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(names), out.String())
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %s", i+1, lines[i], name)
		}
	}
}

// TestSuppressionsTable audits the //dpml:allow budget: every site in
// the requested packages appears as file:line, analyzer, reason —
// including malformed ones, which show up with placeholder columns
// instead of vanishing.
func TestSuppressionsTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-suppressions", "dpml/internal/lint/testdata/src/suppress"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, part := range []string{
		"internal/lint/testdata/src/suppress/suppress.go:7\tfloateq\toracle: exactness is the point here",
		"speling",
		"(no reason)",
	} {
		if !strings.Contains(got, part) {
			t.Errorf("-suppressions table missing %q:\n%s", part, got)
		}
	}
}

// TestInterprocCleanTree pins the zero-findings guarantee for the whole
// module — kernel, fabric, MPI, collectives, tooling — under all eight
// analyzers, the two interprocedural passes included. Unused
// //dpml:allow lines are findings too, so no stale suppression survives.
func TestInterprocCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(nil, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; findings:\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("analyzers report findings on the real tree:\n%s", out.String())
	}
}

// TestUnknownAnalyzerExits2 pins the usage-error exit status: asking
// for an analyzer by name, known or not, is a usage error now that
// -run is gone, and so is the removed -json flag.
func TestUnknownAnalyzerExits2(t *testing.T) {
	for _, args := range [][]string{{"-run", "nope"}, {"-run", "walltime"}, {"-json"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("dpml-lint %s: exit = %d, want 2", strings.Join(args, " "), code)
		}
	}
}
