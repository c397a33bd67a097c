package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSingleProcSleepAdvancesClock(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var woke Time
	k.Spawn("p0", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", woke)
	}
	if k.Now() != Time(5*Microsecond) {
		t.Fatalf("kernel clock %v, want 5us", k.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	order := []string{}
	k.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(-10)
		order = append(order, "b")
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("clock advanced to %v on zero sleeps", k.Now())
	}
	if len(order) != 2 {
		t.Fatalf("got order %v", order)
	}
}

func TestEventOrderingIsDeterministicFIFO(t *testing.T) {
	// Events at the same instant fire in scheduling order.
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var got []int
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < 10; i++ {
			i := i
			k.After(3*Microsecond, func() { got = append(got, i) })
		}
		p.Sleep(10 * Microsecond)
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event order %v, want ascending", got)
		}
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var firedAt Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		k.At(Time(3*Microsecond), func() { firedAt = k.Now() })
		p.Sleep(Microsecond)
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != Time(10*Microsecond) {
		t.Fatalf("past event fired at %v, want clamp to 10us", firedAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("stuck-a", func(p *Proc) { block(p, "waiting for nothing") })
	k.Spawn("stuck-b", func(p *Proc) { block(p, "also waiting") })
	err := co.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked list %v, want 2 entries", dl.Blocked)
	}
	if !strings.Contains(err.Error(), "stuck-a") || !strings.Contains(err.Error(), "waiting for nothing") {
		t.Fatalf("deadlock report missing detail: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("victim", func(p *Proc) { block(p, "parked forever") })
	k.Spawn("bomber", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	err := co.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Proc != "bomber" || fmt.Sprint(pe.Value) != "boom" {
		t.Fatalf("wrong panic detail: %+v", pe)
	}
}

func TestSignalFIFOOrder(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var sig Signal
	open := false
	var got []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			sig.WaitUntil(p, gate{&open, "test"})
			got = append(got, p.Name())
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(Microsecond) // let all waiters park
		open = true
		if n := sig.FireAll(); n != 5 {
			t.Errorf("FireAll released %d, want 5", n)
		}
		if sig.FireAll() != 0 {
			t.Error("FireAll released a phantom waiter")
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	for i, name := range got {
		if name != fmt.Sprintf("w%d", i) {
			t.Fatalf("wake order %v, want FIFO", got)
		}
	}
}

func TestSignalFireAll(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var sig Signal
	open := false
	released := 0
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.WaitUntil(p, gate{&open, "test"})
			released++
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(Microsecond)
		open = true
		if n := sig.FireAll(); n != 4 {
			t.Errorf("FireAll released %d, want 4", n)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if released != 4 {
		t.Fatalf("released %d, want 4", released)
	}
}

func TestQueueSendRecv(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	q := newQueue[int]("mbox")
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.recv(p))
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Microsecond)
			q.send(i * 10)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQueueTryRecv(t *testing.T) {
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	q := newQueue[string]("m")
	k.Spawn("p", func(p *Proc) {
		if _, ok := q.tryRecv(); ok {
			t.Error("tryRecv on empty queue succeeded")
		}
		q.send("x")
		q.send("y")
		if len(q.items) != 2 {
			t.Errorf("len = %d, want 2", len(q.items))
		}
		v, ok := q.tryRecv()
		if !ok || v != "x" {
			t.Errorf("tryRecv = %q,%v want x,true", v, ok)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	trace := func() []string {
		co := NewCoordinator(1, 1, 0)
		k := co.KernelFor(0)
		var tr []string
		var parked []*Proc // even procs waiting to pair up, oldest first
		wakeOldest := func() {
			if len(parked) > 0 {
				w := parked[0]
				parked = parked[1:]
				w.Wake()()
			}
		}
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Duration((i*7)%5) * Microsecond
			k.Spawn(name, func(p *Proc) {
				p.Sleep(d)
				tr = append(tr, fmt.Sprintf("%s@%v", name, p.Now()))
				if i%2 == 0 {
					parked = append(parked, p)
					block(p, "pair up")
				} else {
					wakeOldest()
				}
			})
		}
		k.Spawn("sweeper", func(p *Proc) {
			p.Sleep(100 * Microsecond)
			for len(parked) > 0 {
				wakeOldest()
			}
		})
		if err := co.Run(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := trace(), trace()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("nondeterministic runs:\n%v\n%v", a, b)
	}
}

func TestTransferTime(t *testing.T) {
	cases := []struct {
		n    int64
		rate float64
		want Duration
	}{
		{0, 1e9, 0},
		{-5, 1e9, 0},
		{1000, 1e9, Microsecond}, // 1000 B at 1 GB/s = 1us
		{1, 12.5e9, 1},           // sub-ns clamps to 1ns
		{1 << 20, 12.5e9, 83886}, // 1MiB at 100Gbps
	}
	for _, c := range cases {
		if got := TransferTime(c.n, c.rate); got != c.want {
			t.Errorf("TransferTime(%d,%g) = %v, want %v", c.n, c.rate, got, c.want)
		}
	}
	if d := TransferTime(100, 0); d != stalled {
		t.Errorf("zero rate should stall, got %v", d)
	}
	// A rate tiny enough that the span overflows int64 nanoseconds must
	// stall too, not wrap negative and complete in 1 ns.
	for _, rate := range []float64{1e-4, 1e-9, 1e-300} {
		if d := TransferTime(1<<20, rate); d != stalled {
			t.Errorf("TransferTime(1MiB, %g) = %v, want the stall value", rate, d)
		}
	}
}

// second is one virtual second.
const second = 1_000_000 * Microsecond

func TestDurationHelpers(t *testing.T) {
	if DurationOfSeconds(-1) != 0 {
		t.Error("negative seconds should clamp to 0")
	}
	if DurationOfSeconds(1e-9) != 1 {
		t.Error("1ns round trip failed")
	}
	// Spans past int64 nanoseconds (about 9.2e9 s) saturate at the stall
	// value; the largest span below it still converts exactly.
	for _, s := range []float64{4.62e9, 9.3e9, 1e10, 1e300, math.Inf(1)} {
		if d := DurationOfSeconds(s); d != stalled {
			t.Errorf("DurationOfSeconds(%g) = %d, want %d", s, d, stalled)
		}
	}
	if d := DurationOfSeconds(4.6e9); d != 4_600_000_000*second {
		t.Errorf("DurationOfSeconds(4.6e9) = %d", d)
	}
	d := 1500 * Nanosecond
	if d.Micros() != 1.5 {
		t.Errorf("Micros = %v, want 1.5", d.Micros())
	}
	if (2 * second).Seconds() != 2.0 {
		t.Error("Seconds conversion wrong")
	}
	t0 := Time(1000)
	if t0.Add(500).Sub(t0) != 500 {
		t.Error("Add/Sub roundtrip failed")
	}
}

func TestManyProcsStress(t *testing.T) {
	// 2000 procs ping-ponging through a queue should finish and stay
	// deterministic.
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	q := newQueue[int]("ring")
	const n = 2000
	var sum int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * Nanosecond)
			q.send(i)
		})
	}
	k.Spawn("collector", func(p *Proc) {
		for i := 0; i < n; i++ {
			sum += q.recv(p)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != n*(n-1)/2 {
		t.Fatalf("sum %d, want %d", sum, n*(n-1)/2)
	}
}
