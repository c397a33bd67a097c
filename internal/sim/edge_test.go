package sim

import "testing"

func TestSpawnAfterRunPanics(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("p", func(p *Proc) {})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run did not panic")
		}
	}()
	k.Spawn("late", func(p *Proc) {})
}

func TestRunTwicePanics(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_ = co.Run()
}

func TestEmptyKernelRuns(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	if err := co.Run(); err != nil {
		t.Fatalf("empty kernel: %v", err)
	}
	if k.Now() != 0 {
		t.Fatal("clock moved with no work")
	}
}

func TestDeadlockCleansUpAllProcStates(t *testing.T) {
	// After a deadlock, ready-but-never-run procs and parked procs must
	// all unwind (no goroutine leaks / no hangs); this test passing at
	// all proves the shutdown path completed.
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	for i := 0; i < 10; i++ {
		k.Spawn("stuck", func(p *Proc) { block(p, "never") })
	}
	if err := co.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
}

func TestPanicDuringEventCleanup(t *testing.T) {
	// One proc panics while others hold pending events and parked
	// states; shutdown must cancel everything cleanly.
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(second) })
	k.Spawn("waiter", func(p *Proc) { block(p, "forever") })
	k.Spawn("bomb", func(p *Proc) { panic("kaboom") })
	err := co.Run()
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func TestEventsWithoutProcs(t *testing.T) {
	// Pure event-driven usage: chained events advance the clock.
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var fired []Time
	k.Spawn("seed", func(p *Proc) {
		k.After(10, func() {
			fired = append(fired, k.Now())
			k.After(20, func() { fired = append(fired, k.Now()) })
		})
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("event chain fired at %v", fired)
	}
}

func TestStatsCount(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.Events < 5 {
		t.Fatalf("events = %d, want >= 5", k.Stats.Events)
	}
	// A lone sleeper is the zero-handoff fast path: the only proc
	// switch is the bootstrap handoff from Run.
	if k.Stats.ContextSwitch != 1 {
		t.Fatalf("context switches = %d, want 1 (sleep fast path)", k.Stats.ContextSwitch)
	}
}

func TestProcAccessors(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("zero", func(p *Proc) {
		if p.Name() != "zero" || p.Kernel() != k || p.LP() != 0 {
			t.Error("proc accessors wrong")
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNewCoordinatorKeyWidth: every raw event key must stay below bit
// 63, the network LP's phase bit, so NewCoordinator rejects a node count
// at or above the key-width guard and the widest one it accepts still
// mints network-LP keys below that bit.
func TestNewCoordinatorKeyWidth(t *testing.T) {
	for _, c := range []struct {
		nodes int
		ok    bool
	}{{1<<19 - 3, true}, {1<<19 - 2, false}, {1 << 19, false}} {
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Errorf("nodes=%d: panic %v, want accepted %v", c.nodes, r, c.ok)
				}
			}()
			k := NewCoordinator(c.nodes, 1, 0).NetKernel()
			if raw := k.nextPrio(k.netLP); raw>>63 != 0 {
				t.Errorf("nodes=%d: network-LP key %#x reaches the phase bit", c.nodes, raw)
			}
		}()
	}
}
