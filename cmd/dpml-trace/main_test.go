package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// expectRejected runs dpml-trace with one flag set to value and checks
// it exits 1 with the wanted error and prints no profile.
func expectRejected(t *testing.T, flag, value, want string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{flag, value}, &out, &errb); code != 1 {
		t.Errorf("%s %s: exit = %d, want 1", flag, value, code)
	}
	if want = "dpml-trace: " + want; !strings.Contains(errb.String(), want) {
		t.Errorf("%s %s: stderr = %q, want %q", flag, value, errb.String(), want)
	}
	if out.Len() != 0 {
		t.Errorf("%s %s: printed a profile:\n%s", flag, value, out.String())
	}
}

// TestNonPositiveBytesRejected checks that -bytes 0, negative sizes and
// sizes that are not whole float32 elements fail cleanly instead of
// silently tracing another size.
func TestNonPositiveBytesRejected(t *testing.T) {
	for _, size := range []string{"0", "-5", "3", "6"} {
		expectRejected(t, "-bytes", size, "bad size "+size+": not a positive whole number of float32 elements\n")
	}
}

// TestNonPositiveItersRejected checks that -iters 0 and negative counts
// fail cleanly instead of printing an empty profile.
func TestNonPositiveItersRejected(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		expectRejected(t, "-iters", n, "bad iters "+n)
	}
}

// TestNegativeShardsRejected checks that a negative -shards fails
// cleanly instead of silently tracing on the serial kernel.
func TestNegativeShardsRejected(t *testing.T) {
	for _, n := range []string{"-1", "-3"} {
		expectRejected(t, "-shards", n, "bad shards "+n)
	}
}

// TestNegativeLimitRejected checks that a negative -limit fails cleanly
// instead of silently keeping every event, as -limit 0 asks.
func TestNegativeLimitRejected(t *testing.T) {
	for _, n := range []string{"-1", "-7"} {
		expectRejected(t, "-limit", n, "bad limit "+n)
	}
}

func TestSmallTraceRuns(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-nodes", "2", "-ppn", "2", "-design", "dpml-2", "-bytes", "256", "-phases"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "workload: 2 x allreduce(256 bytes) with dpml-2") {
		t.Errorf("missing workload line:\n%s", out.String())
	}
}

// TestLibFlagGone: selectors are designs, so -lib is an unknown flag.
func TestLibFlagGone(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-lib", "proposed"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestProposedGolden: -design proposed traces, and names in the workload
// line, the spec the selector picks, printing byte for byte what -lib
// proposed printed before selectors became designs
// (testdata/proposed.golden).
func TestProposedGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/proposed.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-cluster", "A", "-nodes", "2", "-ppn", "4", "-bytes", "256", "-design", "proposed"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	if out.String() != string(want) {
		t.Errorf("output differs from testdata/proposed.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestPipelinedAlgRejected: the pipelined inter-leader phase always runs
// Rabenseifner, so an algorithm suffix is an error, not ignored.
func TestPipelinedAlgRejected(t *testing.T) {
	expectRejected(t, "-design", "dpml-pipe-4x4:ring", `core: design "dpml-pipe-4x4:ring"`)
}
