package main

import (
	"bytes"
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

// TestNonPositiveBytesRejected checks that -bytes 0 and negative sizes
// fail cleanly instead of silently tracing a 4-byte allreduce.
func TestNonPositiveBytesRejected(t *testing.T) {
	for _, size := range []string{"0", "-5"} {
		expectRejected(t, "-bytes", size, "bad size "+size)
	}
}

// TestNonPositiveItersRejected checks that -iters 0 and negative counts
// fail cleanly instead of printing an empty profile.
func TestNonPositiveItersRejected(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		expectRejected(t, "-iters", n, "bad iters "+n)
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
