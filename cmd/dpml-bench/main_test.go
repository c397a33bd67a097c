package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectedInputs: a negative count, worker number or deadline is a
// usage error: exit 2 with one error line and no table, where each was
// once accepted and ran the defaults. An unknown figure fails the run.
func TestRejectedInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-iters", "-2"}, 2, "dpml-bench: bad -iters -2\n"},
		{[]string{"-warmup", "-3"}, 2, "dpml-bench: bad -warmup -3\n"},
		{[]string{"-j", "-3"}, 2, "dpml-bench: bad -j -3\n"},
		{[]string{"-watchdog", "-1s"}, 2, "dpml-bench: bad -watchdog -1s\n"},
		{[]string{"-figure", "fig99", "-quick"}, 1, `unknown figure "fig99"`},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%v: exit = %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(errb.String(), tc.want) || strings.Count(errb.String(), "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line with %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a table:\n%s", tc.args, out.String())
		}
	}
}
