package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dpml/internal/explore"
)

// verify runs dpml-verify on a 2x3 job (small enough for every design)
// plus args and decodes its report.
func verify(t *testing.T, args ...string) (code int, reports []explore.Report, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append([]string{"-nodes", "2", "-ppn", "3", "-count", "9"}, args...), &out, &errb)
	if out.Len() > 0 {
		if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
			t.Fatalf("report is not JSON: %v\n%s", err, out.String())
		}
	}
	return code, reports, errb.String()
}

// TestDesignFlag: -design takes one name, a comma list, or all.
func TestDesignFlag(t *testing.T) {
	for _, c := range []struct {
		design string
		want   int
	}{
		{"all", 10},
		{"flat,host-based", 2},
	} {
		code, reps, stderr := verify(t, "-design", c.design)
		if code != 0 {
			t.Fatalf("-design %s: exit = %d, stderr: %s", c.design, code, stderr)
		}
		if len(reps) != c.want {
			t.Errorf("-design %s: %d reports, want %d", c.design, len(reps), c.want)
		}
	}
}

// TestDesignsFlagGone: the old plural flag is a usage error.
func TestDesignsFlagGone(t *testing.T) {
	if code, _, _ := verify(t, "-designs", "all"); code != 2 {
		t.Errorf("-designs all: exit = %d, want 2", code)
	}
}

// TestZeroCountExploresEmptyAllreduce: -count 0 is a legal empty
// allreduce, not a request for the default count.
func TestZeroCountExploresEmptyAllreduce(t *testing.T) {
	code, reps, stderr := verify(t, "-count", "0")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if len(reps) != 1 || !strings.Contains(reps[0].Scenario, "-count 0 ") {
		t.Errorf("reports %+v, want one with -count 0", reps)
	}
}

// TestZeroNodesRejected: -nodes 0 fails at setup instead of running a
// default shape.
func TestZeroNodesRejected(t *testing.T) {
	code, reps, stderr := verify(t, "-nodes", "0")
	if code != 2 || len(reps) != 0 {
		t.Errorf("exit = %d with %d reports, want 2 and none", code, len(reps))
	}
	if !strings.Contains(stderr, "topology:") {
		t.Errorf("stderr = %q, want a topology: error", stderr)
	}
}

// TestNegativeShardsRejected: a negative -shards is one error line and a
// non-zero exit, not a silently serial exploration. So is a negative
// count that would otherwise be read as another: -schedules as 0 (a run
// that verifies nothing), -max-schedules as the default budget and
// -min-distinct as no floor.
func TestNegativeShardsRejected(t *testing.T) {
	for _, c := range []struct{ flag, n string }{
		{"-shards", "-1"},
		{"-shards", "-2"},
		{"-schedules", "-3"},
		{"-max-schedules", "-1"},
		{"-min-distinct", "-1"},
	} {
		args := []string{"-design", "dpml-2", "-schedules", "2", "-systematic", c.flag, c.n}
		code, reps, stderr := verify(t, args...)
		if code != 2 || len(reps) != 0 {
			t.Errorf("%s %s: exit = %d with %d reports, want 2 and none", c.flag, c.n, code, len(reps))
		}
		if want := "dpml-verify: bad " + c.flag + " " + c.n + "\n"; stderr != want {
			t.Errorf("%s %s: stderr = %q, want %q", c.flag, c.n, stderr, want)
		}
	}
}
