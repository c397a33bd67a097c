package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRejectedInputs: each bad input exits non-zero with its error and
// prints nothing to stdout, the job header included. Selectors are
// designs, so -lib is an unknown flag; the pipelined inter-leader phase
// always runs Rabenseifner, so an algorithm suffix on it is an
// error rather than ignored.
func TestRejectedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-lib", "proposed"}, 2, "flag provided but not defined: -lib"},
		{[]string{"-design", "dpml-pipe-4x4:ring"}, 1, `dpml-apps: core: design "dpml-pipe-4x4:ring"`},
		{[]string{"-app", "bogus"}, 1, `dpml-apps: unknown app "bogus"`},
		{[]string{"-iters", "-1"}, 1, "dpml-apps: hpcg: -1 iterations"},
		{[]string{"-app", "miniamr", "-steps", "0"}, 1, "dpml-apps: miniamr: Steps = 0"},
		{[]string{"-app", "dnn", "-bucket", "-5"}, 1, "dpml-apps: dnn: negative bucket size"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%v: exit = %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed to stdout:\n%s", tc.args, out.String())
		}
	}
}

// TestProposedGolden: miniamr with -design proposed prints, byte for
// byte, what -lib proposed printed before selectors became designs
// (testdata/proposed.golden), except that the label reads "design".
func TestProposedGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/proposed.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-app", "miniamr", "-cluster", "C", "-nodes", "2", "-ppn", "4", "-steps", "1",
		"-design", "proposed"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	if out.String() != string(want) {
		t.Errorf("output differs from testdata/proposed.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestDesignLabel: a design that is not a library selector is labelled
// as a design, next to the same refinement time.
func TestDesignLabel(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-app", "miniamr", "-cluster", "C", "-nodes", "2", "-ppn", "8", "-steps", "1",
		"-design", "dpml-8"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	const want = "miniamr on C-Xeon-OmniPath, 2 nodes x 8 ppn (16 procs)\n" +
		"  refinement time 54.917us over 1 steps (design dpml-8)\n"
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}
