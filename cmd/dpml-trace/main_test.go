package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNonPositiveBytesRejected checks that -bytes 0 and negative sizes
// fail cleanly instead of silently tracing a 4-byte allreduce.
func TestNonPositiveBytesRejected(t *testing.T) {
	for _, size := range []string{"0", "-5"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-bytes", size}, &out, &errb); code != 1 {
			t.Errorf("-bytes %s: exit = %d, want 1", size, code)
		}
		if want := "dpml-trace: bad size " + size; !strings.Contains(errb.String(), want) {
			t.Errorf("-bytes %s: stderr = %q, want %q", size, errb.String(), want)
		}
		if out.Len() != 0 {
			t.Errorf("-bytes %s: printed a profile:\n%s", size, out.String())
		}
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
