package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The coroutine scheduler runs scheduling decisions inline in the parking
// proc, which names the next proc and yields to the kernel's driver loop.
// These tests pin down the tricky corners: unwinding when the failing or
// reporting proc is the one that decided, context-switch accounting, and
// the zero-switch self-handoff.

// TestPingPongHalvesContextSwitches is the headline accounting check: two
// procs exchanging n messages park once per receive, so the run makes
// 2n+2 scheduling decisions (two bootstrap dispatches plus 2n receive
// wakeups). Counting a switch into a scheduler and one out of it for each
// decision gives twice that; Stats.ContextSwitch counts one per resume of
// another proc, so it must come out at no more than half.
func TestPingPongHalvesContextSwitches(t *testing.T) {
	const n = 1000
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	ab := newQueue[int]("a->b")
	ba := newQueue[int]("b->a")
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			ab.send(i)
			if got := ba.recv(p); got != i {
				t.Errorf("a got %d, want %d", got, i)
			}
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			if got := ab.recv(p); got != i {
				t.Errorf("b got %d, want %d", got, i)
			}
			ba.send(i)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	decisions := uint64(2*n + 2)
	eventDriven := 2 * decisions
	if k.Stats.ContextSwitch > eventDriven/2 {
		t.Fatalf("context switches = %d, want <= %d (half of %d event-driven handoffs)",
			k.Stats.ContextSwitch, eventDriven/2, eventDriven)
	}
	if k.Stats.ContextSwitch < decisions/2 {
		t.Fatalf("context switches = %d suspiciously low for %d decisions",
			k.Stats.ContextSwitch, decisions)
	}
}

// TestLoneSleeperZeroHandoffs: a solo proc's sleeps must advance the
// clock without switching procs: each sleep schedules its wakeup, and
// the scheduler the proc runs as it parks fires that wakeup and hands
// the proc back to itself.
func TestLoneSleeperZeroHandoffs(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("solo", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.ContextSwitch != 1 {
		t.Fatalf("switches = %d, want 1 (bootstrap only)", k.Stats.ContextSwitch)
	}
	if k.Now() != Time(100*Microsecond) {
		t.Fatalf("clock = %v, want 100us", k.Now())
	}
	if k.Stats.Events != 100 {
		t.Fatalf("events = %d, want 100 (one wakeup per sleep)", k.Stats.Events)
	}
}

// TestSleepFastPathYieldsToEarlierEvent: a proc whose wakeup races an
// earlier event must see the event fire first.
func TestSleepFastPathYieldsToEarlierEvent(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.After(2*Microsecond, func() { order = append(order, "event@2") })
		p.Sleep(5 * Microsecond) // the 2us event precedes the wakeup
		order = append(order, fmt.Sprintf("wake@%v", p.Now()))
		p.Sleep(3 * Microsecond) // the wakeup is the only event again
		order = append(order, fmt.Sprintf("wake@%v", p.Now()))
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	want := "event@2,wake@5.000us,wake@8.000us"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestSleepSameInstantEventOrdering: an event already scheduled at the
// exact wakeup instant has a smaller sequence number, so it must fire
// before the sleeper resumes.
func TestSleepSameInstantEventOrdering(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var order []string
	k.Spawn("p", func(p *Proc) {
		k.After(4*Microsecond, func() { order = append(order, "event") })
		p.Sleep(4 * Microsecond)
		order = append(order, "sleeper")
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "event,sleeper" {
		t.Fatalf("order = %q, want event before sleeper", got)
	}
}

// TestPanicMidRunWithReadyProcs: a proc panics while other procs are
// ready (not just parked); the ready-but-never-run ones must unwind too
// and the panic must surface. The panicking proc's own exit path
// discovers the failure and ends the driver loop.
func TestPanicMidRunWithReadyProcs(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	ran := 0
	k.Spawn("bomb", func(p *Proc) { panic("early") })
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("never%d", i), func(p *Proc) { ran++ })
	}
	err := co.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "bomb" {
		t.Fatalf("wrong proc: %+v", pe)
	}
	if ran != 0 {
		t.Fatalf("%d ready procs ran after the failure; old scheduler aborted before dispatching them", ran)
	}
}

// TestPanicInsideEventCallback: an event callback fires inline in
// whichever proc runs the scheduler step; a panic there is attributed to
// that proc and still aborts the run cleanly.
func TestPanicInsideEventCallback(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("bystander", func(p *Proc) { block(p, "forever") })
	k.Spawn("scheduler-host", func(p *Proc) {
		k.After(Microsecond, func() { panic("callback boom") })
		p.Sleep(5 * Microsecond)
	})
	err := co.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "scheduler-host" {
		t.Fatalf("panic attributed to %q, want the proc that fired it", pe.Proc)
	}
}

// TestDeadlockReportedByTokenHolder: the last proc to park is the one
// that runs the scheduler, finds nothing runnable, and must report a
// deadlock that includes *itself*, then unwind cleanly even though it was
// running when it found out.
func TestDeadlockReportedByTokenHolder(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("first", func(p *Proc) { block(p, "first reason") })
	k.Spawn("last", func(p *Proc) {
		p.Sleep(Microsecond) // guarantee it parks after "first"
		block(p, "last reason")
	})
	err := co.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v, want both procs", dl.Blocked)
	}
	if !strings.Contains(err.Error(), "last reason") {
		t.Fatalf("report omits the detecting proc: %v", err)
	}
	if dl.At != Time(Microsecond) {
		t.Fatalf("deadlock at %v, want 1us", dl.At)
	}
}

// TestDeadlockDetectedByExitingProc: the run can also dead-end when a
// finishing proc's exit path finds only parked procs left; the survivors
// are reported and unwound.
func TestDeadlockDetectedByExitingProc(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("stuck", func(p *Proc) { block(p, "abandoned") })
	k.Spawn("quitter", func(p *Proc) { p.Sleep(Microsecond) })
	err := co.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "stuck") {
		t.Fatalf("blocked = %v, want only the parked proc", dl.Blocked)
	}
}

// TestShutdownUnwindsMixedStates: on abort the kernel must unwind parked
// procs, ready procs that have run before, and ready procs that have
// never run, without resuming any of them into its body.
// TestShutdownReleasesGoroutines checks that no goroutine outlives them.
func TestShutdownUnwindsMixedStates(t *testing.T) {
	// Spawn order matters: "ran-then-ready" parks on the gate, and
	// "parked" opens it, which readies ran-then-ready behind "bomb" in
	// the FIFO, then parks. So when bomb panics the kernel must unwind
	// one blocked proc, one ready proc that has run, and one ready proc
	// that never ran.
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var sig Signal
	open := false
	k.Spawn("ran-then-ready", func(p *Proc) {
		sig.WaitUntil(p, gate{&open, "gate"})
		t.Error("ran-then-ready resumed after failure")
	})
	k.Spawn("parked", func(p *Proc) {
		open = true
		sig.FireAll()
		block(p, "never fired")
	})
	k.Spawn("bomb", func(p *Proc) { panic("abort") })
	k.Spawn("never-ran", func(p *Proc) { t.Error("never-ran was dispatched") })
	err := co.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "bomb" {
		t.Fatalf("panic attributed to %q, want bomb", pe.Proc)
	}
}

// TestShutdownReleasesGoroutines runs every way a run can fail — deadlock,
// watchdog expiry, a proc panic and an event-callback panic — on a
// one-kernel coordinator (shards 0 clamps to 1) and on coordinators at 2
// and 4 shards, and checks that the run leaves no goroutine behind once
// it returns. Every node has a proc that parks, one that the parked
// proc's FireAll readies again after it ran, and one spawned after the
// failure's trigger. A proc panic strikes while the rerun proc is ready
// and the late proc has never run. An event fires only once the ready
// ring is empty, so the callback readies the parked proc before it
// panics. Deadlock and watchdog verdicts are reached with the ready ring
// empty, so there every proc is parked.
func TestShutdownReleasesGoroutines(t *testing.T) {
	const nodes = 4
	ticker := func(*Kernel, *Proc) func(*Proc) {
		return func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		}
	}
	bomb := func(*Kernel, *Proc) func(*Proc) {
		return func(*Proc) { panic("proc boom") }
	}
	callbackBomb := func(k *Kernel, parked *Proc) func(*Proc) {
		return func(p *Proc) {
			k.After(Microsecond, func() {
				parked.Wake()()
				panic("callback boom")
			})
			p.Sleep(5 * Microsecond)
		}
	}
	kinds := []struct {
		name     string
		watchdog Duration
		trigger  func(k *Kernel, parked *Proc) func(*Proc) // node 0's extra proc
		want     func(error) bool
	}{
		{"deadlock", 0, nil, isErr[*DeadlockError]},
		{"watchdog", 100 * Microsecond, ticker, isErr[*WatchdogError]},
		{"proc-panic", 0, bomb, isErr[*PanicError]},
		{"callback-panic", 0, callbackBomb, isErr[*PanicError]},
	}
	for _, kind := range kinds {
		for _, shards := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", kind.name, shards), func(t *testing.T) {
				before := runtime.NumGoroutine()
				co := NewCoordinator(nodes, shards, 10*Microsecond)
				co.SetWatchdog(kind.watchdog)
				for n := 0; n < nodes; n++ {
					k := co.KernelFor(n)
					var sig Signal
					open := false
					k.SpawnOn(n, "rerun", func(p *Proc) {
						sig.WaitUntil(p, gate{&open, "gate"})
						block(p, "rerun")
					})
					parked := k.SpawnOn(n, "parked", func(p *Proc) {
						open = true
						sig.FireAll()
						block(p, "parked")
					})
					if n == 0 && kind.trigger != nil {
						k.SpawnOn(n, kind.name, kind.trigger(k, parked))
					}
					k.SpawnOn(n, "late", func(p *Proc) { block(p, "late") })
				}
				if err := co.Run(); !kind.want(err) {
					t.Fatalf("got %v, want a %s verdict", err, kind.name)
				}
				// Goroutines other tests left behind may exit meanwhile,
				// so the count may fall, but the run must add none. Run
				// returns once every shard goroutine has called wg.Done,
				// and a goroutine past that call still counts until the
				// scheduler retires it, so let those exits land first. A
				// goroutine the run leaked stays blocked and still counts.
				n := runtime.NumGoroutine()
				for i := 0; n > before && i < 100000; i++ {
					runtime.Gosched()
					n = runtime.NumGoroutine()
				}
				if n > before {
					t.Fatalf("%d goroutines after the run, %d before", n, before)
				}
			})
		}
	}
}

// TestFinishedProcReleasesBody: once a proc has finished, its kernel must
// not keep the body, or what the body captures, reachable.
func TestFinishedProcReleasesBody(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	freed := make(chan struct{})
	func() {
		captured := new([1 << 10]byte)
		runtime.SetFinalizer(captured, func(*[1 << 10]byte) { close(freed) })
		k.Spawn("p", func(*Proc) { captured[0]++ })
	}()
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for i := 0; ; i++ {
		select {
		case <-freed:
			runtime.KeepAlive(k)
			return
		default:
		}
		if i == 100000 {
			t.Fatal("the body's captured state is still reachable from the kernel")
		}
		runtime.Gosched()
	}
}

func isErr[E error](err error) bool {
	var e E
	return errors.As(err, &e)
}

// TestSelfHandoffSkipsSwitch: when a proc yields while being the only
// ready proc (after readying itself), it must resume inline. Regression
// guard for the self-handoff branch of switchTo.
func TestSelfHandoffSkipsSwitch(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	q := newQueue[int]("loop")
	k.Spawn("self", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.send(i) // readies nobody; queue already has data for recv
			if got := q.recv(p); got != i {
				t.Errorf("got %d, want %d", got, i)
			}
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats.ContextSwitch != 1 {
		t.Fatalf("switches = %d, want 1 (all recvs hit data)", k.Stats.ContextSwitch)
	}
}

// TestHandoffSchedulingOrderMatchesFIFO re-pins the global ordering
// contract: spawn order, ready FIFO, and event seq tiebreaks must be
// exactly what the two-hop scheduler produced (the committed results/
// tables depend on it).
func TestHandoffSchedulingOrderMatchesFIFO(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var got []string
	var sig Signal
	open := false
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			got = append(got, name+":start")
			sig.WaitUntil(p, gate{&open, "gate"})
			got = append(got, name+":released")
		})
	}
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(Microsecond)
		open = true
		sig.FireAll()
		got = append(got, "driver:fired")
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	want := "w0:start w1:start w2:start w3:start driver:fired " +
		"w0:released w1:released w2:released w3:released"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("order:\n got %s\nwant %s", s, want)
	}
}
