package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectedInputs: each bad input exits non-zero with one error line
// and prints no table, in both table modes: a bad value 1, a negative -j
// 2, a usage error as in dpml-bench and dpml-osu. A size that is not
// whole float32 elements would otherwise be measured as another size
// under its own label, a bad -window or -iters printed one error per job,
// and a negative -j ran on every core.
func TestRejectedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-sizes", "4,3"}, 1, "dpml-mbw: bench: size 3 bytes is not a positive whole number of float32 elements\n"},
		{[]string{"-sizes", "6", "-relative=false"}, 1, "dpml-mbw: bench: size 6 bytes is not a positive whole number of float32 elements\n"},
		{[]string{"-pairs", "0"}, 1, "dpml-mbw: bad value \"0\"\n"},
		{[]string{"-cluster", "Z"}, 1, "dpml-mbw: unknown cluster \"Z\"\n"},
		{[]string{"-window", "-1"}, 1, "dpml-mbw: bench: mbw window -1 is not positive\n"},
		{[]string{"-window", "0", "-relative=false"}, 1, "dpml-mbw: bench: mbw window 0 is not positive\n"},
		{[]string{"-iters", "-2"}, 1, "dpml-mbw: bench: mbw iters -2 is not positive\n"},
		{[]string{"-j", "-2"}, 2, "dpml-mbw: bad -j -2\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%v: exit = %d, want %d", tc.args, code, tc.code)
		}
		if errb.String() != tc.want {
			t.Errorf("%v: stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a table:\n%s", tc.args, out.String())
		}
	}
}

// TestAbsoluteTable: -relative=false prints the header and one row per
// size, each with one column per pair count.
func TestAbsoluteTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-pairs", "1,2", "-sizes", "4,64", "-relative=false", "-j", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "# Aggregate throughput (MB/s), inter-node") ||
		len(strings.Fields(lines[1])) != 3 || !strings.HasPrefix(strings.TrimSpace(lines[3]), "64 ") {
		t.Errorf("table:\n%s", out.String())
	}
}
