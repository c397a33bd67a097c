package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLeadersValidated checks that -leaders is validated against the
// node's process count instead of silently pricing an impossible design.
func TestLeadersValidated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-cluster", "B", "-nodes", "16", "-ppn", "28", "-leaders", "100"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	if want := "costmodel: L=100 exceeds ppn=28"; !strings.Contains(errb.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", errb.String(), want)
	}
}

func TestLeadersInRangeRuns(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-leaders", "28", "-sizes", "4"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Eq7(us)") {
		t.Errorf("missing the Eq. 7 table:\n%s", out.String())
	}
}
