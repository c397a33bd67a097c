package sim

import (
	"errors"
	"strings"
	"testing"
)

// verdictParity runs one scenario on a 2-node coordinator at one shard
// and at two, and requires both runs to end with the same verdict text:
// the deadline or deadlock instant, the blocked list, the next pending
// event and the workload diagnostic. spawn builds the scenario's procs
// on co; diag, when non-empty, is installed as the diagnostic. It
// returns the one-shard verdict.
func verdictParity(t *testing.T, watchdog Duration, diag string, spawn func(co *Coordinator)) error {
	t.Helper()
	var errs [2]error
	for i, shards := range []int{1, 2} {
		co := NewCoordinator(2, shards, 10*Microsecond)
		if sharded := co.KernelFor(0) != co.KernelFor(1); sharded != (shards > 1) {
			t.Fatalf("shards=%d: nodes on separate kernels = %v", shards, sharded)
		}
		co.SetWatchdog(watchdog)
		if diag != "" {
			co.SetDiagnostic(func() string { return diag })
		}
		spawn(co)
		errs[i] = co.Run()
	}
	if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
		t.Fatalf("verdicts differ:\nshards=1: %v\nshards=2: %v", errs[0], errs[1])
	}
	return errs[0]
}

// stuckOn spawns a proc on node that waits for a wakeup nobody sends.
func stuckOn(co *Coordinator, node int, name, why string) {
	co.KernelFor(node).SpawnOn(node, name, func(p *Proc) { block(p, why) })
}

// TestWatchdogAbortsWedgedRun: a proc that keeps the clock ticking with
// live events never reaches global deadlock detection, so the watchdog
// deadline is the only thing that can turn the wedge into a diagnostic
// error.
func TestWatchdogAbortsWedgedRun(t *testing.T) {
	err := verdictParity(t, 100*Microsecond, "pending requests: 3", func(co *Coordinator) {
		stuckOn(co, 0, "stuck-a", "waiting on a signal nobody fires")
		co.KernelFor(1).SpawnOn(1, "ticker", func(p *Proc) {
			for {
				p.Sleep(Microsecond) // live events forever: no global deadlock
			}
		})
	})
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("got %v, want WatchdogError", err)
	}
	if wd.Deadline != Time(100*Microsecond) {
		t.Fatalf("deadline %v, want 100us", wd.Deadline)
	}
	if len(wd.Blocked) != 2 || !strings.Contains(wd.Blocked[0], "stuck-a: waiting on a signal nobody fires") {
		t.Fatalf("blocked dump %v", wd.Blocked)
	}
	// The ticker's wakeup was pending when the watchdog fired.
	if wd.NextEvent != "t=100.000us" {
		t.Fatalf("NextEvent = %q, want the ticker's wakeup at 100us", wd.NextEvent)
	}
	if wd.Diag != "pending requests: 3" {
		t.Fatalf("Diag = %q", wd.Diag)
	}
	// The rendered report the CLIs print carries all three parts.
	msg := err.Error()
	for _, want := range []string{
		"stuck-a: waiting on a signal nobody fires",
		"next pending event: t=100.000us",
		"pending requests: 3",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("watchdog report missing %q:\n%s", want, msg)
		}
	}
}

// TestWatchdogNoopOnCleanRun: a run that finishes before the deadline
// must complete exactly as if the watchdog were never armed, and an
// event left past the deadline once every proc has finished still fires.
func TestWatchdogNoopOnCleanRun(t *testing.T) {
	var ends [2]Time
	var lastAt Time
	run := 0
	err := verdictParity(t, Second, "", func(co *Coordinator) {
		i := run
		run++
		k := co.KernelFor(0)
		k.SpawnOn(0, "quick", func(p *Proc) {
			p.Sleep(5 * Microsecond)
			ends[i] = p.Now()
			k.After(2*Second, func() { lastAt = k.Now() })
		})
		co.KernelFor(1).SpawnOn(1, "quicker", func(p *Proc) { p.Sleep(Microsecond) })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		if end != Time(5*Microsecond) {
			t.Fatalf("run %d: proc finished at %v, want 5us", i, end)
		}
	}
	if lastAt != Time(5*Microsecond).Add(2*Second) {
		t.Fatalf("event past the deadline fired at %v, want 2.000005s", lastAt)
	}
}

// TestWatchdogReportsDeadlockAtDeadline: with the watchdog armed, a
// genuine deadlock is surfaced as a watchdog verdict with nothing
// pending.
func TestWatchdogReportsDeadlockAtDeadline(t *testing.T) {
	err := verdictParity(t, 50*Microsecond, "", func(co *Coordinator) {
		stuckOn(co, 0, "stuck", "forever")
		stuckOn(co, 1, "stuck-too", "forever")
	})
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("got %v, want WatchdogError", err)
	}
	if strings.Join(wd.Blocked, ",") != "stuck-too: forever,stuck: forever" {
		t.Fatalf("blocked dump %v", wd.Blocked)
	}
	if wd.NextEvent != "none" {
		t.Fatalf("NextEvent = %q, want none", wd.NextEvent)
	}
}

// TestWatchdogDiagnosticInReports: a workload diagnostic is appended to
// both deadlock and watchdog errors.
func TestWatchdogDiagnosticInReports(t *testing.T) {
	err := verdictParity(t, 0, "pending requests: 3", func(co *Coordinator) {
		stuckOn(co, 0, "stuck", "forever")
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if dl.Diag != "pending requests: 3" || !strings.Contains(err.Error(), "pending requests: 3") {
		t.Fatalf("diagnostic missing from deadlock report: %v", err)
	}

	err = verdictParity(t, 10*Microsecond, "rank 1: 2 posted recvs", func(co *Coordinator) {
		stuckOn(co, 1, "stuck", "forever")
	})
	var wd *WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("got %v, want WatchdogError", err)
	}
	if !strings.Contains(err.Error(), "rank 1: 2 posted recvs") {
		t.Fatalf("diagnostic missing from watchdog report: %v", err)
	}
}

// TestWatchdogZeroIsOff: SetWatchdog(0) arms nothing — the run keeps the
// instant deadlock detection and terminates with a DeadlockError at the
// instant the last proc parked.
func TestWatchdogZeroIsOff(t *testing.T) {
	err := verdictParity(t, 0, "", func(co *Coordinator) {
		stuckOn(co, 0, "stuck", "forever")
		co.KernelFor(1).SpawnOn(1, "late", func(p *Proc) {
			p.Sleep(3 * Microsecond)
			block(p, "after a sleep")
		})
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if dl.At != Time(3*Microsecond) || len(dl.Blocked) != 2 {
		t.Fatalf("deadlock at %v blocking %v, want 3us and both procs", dl.At, dl.Blocked)
	}
}
