package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectedInputs: each bad input exits 1 with one error line and
// prints no table, in both table modes. A size that is not whole
// float32 elements would otherwise be measured as another size under
// its own label.
func TestRejectedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sizes", "4,3"}, "dpml-mbw: bench: size 3 bytes is not a positive whole number of float32 elements\n"},
		{[]string{"-sizes", "6", "-relative=false"}, "dpml-mbw: bench: size 6 bytes is not a positive whole number of float32 elements\n"},
		{[]string{"-pairs", "0"}, "dpml-mbw: bad value \"0\"\n"},
		{[]string{"-cluster", "Z"}, "dpml-mbw: unknown cluster \"Z\"\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 1 {
			t.Errorf("%v: exit = %d, want 1", tc.args, code)
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
