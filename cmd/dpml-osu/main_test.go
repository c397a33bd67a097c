package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRejectedInputs: each bad input exits non-zero with its error and
// prints no table. Selectors are designs, so -lib is an unknown flag;
// the pipelined inter-leader phase always runs Rabenseifner, so
// an algorithm suffix on it is an error rather than ignored; a negative
// warmup is an error rather than zero warmups; a size that is not whole
// float32 elements is one error rather than a row measuring another
// size.
func TestRejectedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-lib", "proposed"}, 2, "flag provided but not defined: -lib"},
		{[]string{"-design", "dpml-pipe-4x4:ring"}, 1, `dpml-osu: core: design "dpml-pipe-4x4:ring"`},
		{[]string{"-warmup", "-3"}, 1, "dpml-osu: bench: warmup = -3\n"},
		{[]string{"-sizes", "4,3,6"}, 1, "dpml-osu: bench: size 3 bytes is not a positive whole number of float32 elements\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%v: exit = %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a table:\n%s", tc.args, out.String())
		}
	}
}

// TestProposedGolden: -design proposed prints, byte for byte, the table
// that -lib proposed printed before selectors became designs
// (testdata/proposed.golden). The sizes cover its SHArP, DPML and
// pipelined picks.
func TestProposedGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/proposed.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-cluster", "A", "-nodes", "2", "-ppn", "4", "-sizes", "4,4096,1048576",
		"-iters", "2", "-j", "1", "-design", "proposed"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	if out.String() != string(want) {
		t.Errorf("output differs from testdata/proposed.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}
