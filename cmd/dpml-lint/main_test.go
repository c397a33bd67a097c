package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is the floateq testdata package, addressed by import path so
// the tests are independent of the working directory inside the module.
const fixture = "dpml/internal/lint/testdata/src/floateq"

func TestFindingsExitNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "floateq", fixture}, &out, &errb)
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

func TestJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-run", "floateq", fixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	golden := filepath.Join("testdata", "floateq.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("-json output differs from %s:\n got:\n%s\nwant:\n%s", golden, out.String(), want)
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "dpml/internal/sim"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `"findings": []`) {
		t.Errorf("clean -json run should emit an empty findings array:\n%s", out.String())
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
// -shards. The whole virtual-time path must stay clean under walltime
// and globalrand with zero suppressions — a legitimate new exemption
// belongs in the analyzers' exempt lists with a written rationale, not
// in an inline //dpml:allow.
func TestShardCoordinatorWalltimeGlobalrandClean(t *testing.T) {
	pkgs := []string{
		"dpml/internal/sim",
		"dpml/internal/fabric",
		"dpml/internal/mpi",
		"dpml/internal/core",
	}
	var out, errb bytes.Buffer
	code := run(append([]string{"-run", "walltime,globalrand"}, pkgs...), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; findings:\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("virtual-time path has walltime/globalrand findings:\n%s", out.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"walltime", "globalrand", "maprange", "spanpair", "waitcheck", "floateq",
		"prio", "taintflow", "lpown", "sendpath"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
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

// TestTaintflowJSONGolden pins the machine-readable shape of an
// interprocedural finding: module-root-relative position plus the full
// witness path in the message.
func TestTaintflowJSONGolden(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-run", "taintflow", "dpml/internal/lint/testdata/src/taintflow"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	golden := filepath.Join("testdata", "taintflow.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("-json output differs from %s:\n got:\n%s\nwant:\n%s", golden, out.String(), want)
	}
}

// TestInterprocCleanTree pins the zero-findings guarantee for the whole
// module — kernel, fabric, MPI, collectives, tooling — under all ten
// analyzers, the three interprocedural passes included. Unused
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

func TestUnknownAnalyzerExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
