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

// TestSmallJobsRun checks that 1- and 2-process jobs run under the
// default flags: the default straggler count shrinks to p-1, while an
// out-of-range count the user gives still fails and names the flag.
func TestSmallJobsRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "1", "-ppn", "1"}, "stragglers=0 "},
		{[]string{"-nodes", "1", "-ppn", "2"}, "stragglers=1 "},
	} {
		var out, errb bytes.Buffer
		if code := run(append(tc.args, "-sizes", "4"), &out, &errb); code != 0 {
			t.Errorf("%v: exit = %d, want 0; stderr: %s", tc.args, code, errb.String())
			continue
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-nodes", "1", "-ppn", "2", "-stragglers", "2"}, &out, &errb); code != 1 {
		t.Fatalf("explicit -stragglers 2 on 2 processes: exit = %d, want 1", code)
	}
	if want := "dpml-model: -stragglers=2 out of range [0,2)\n"; errb.String() != want {
		t.Errorf("stderr = %q, want %q", errb.String(), want)
	}
}

// TestBadParametersPrintNothing checks that every parameter is validated
// before the first table line: a bad argument set exits 1 with nothing
// on stdout and one error line on stderr.
func TestBadParametersPrintNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"},
		{"-ppn", "0"},
		{"-k", "0"},
		{"-g", "500"},
		{"-g", "-1"},
		{"-leaders", "-1"},
		{"-leaders", "100"},
		{"-stragglers", "448"},
		{"-delta", "-1"},
		{"-sizes", "4,x"},
		{"-cluster", "Z"},
	} {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		if code != 1 {
			t.Errorf("%v: exit = %d, want 1", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: stdout not empty:\n%s", args, out.String())
		}
		if lines := strings.Count(errb.String(), "\n"); lines != 1 || !strings.HasSuffix(errb.String(), "\n") {
			t.Errorf("%v: stderr has %d lines, want 1: %q", args, lines, errb.String())
		}
	}
}
