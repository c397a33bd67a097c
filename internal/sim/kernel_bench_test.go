package sim

import (
	"fmt"
	"testing"
)

// benchmarkHandoff drives a kernel whose procs do nothing but signal
// ping-pong: each releases the signal's waiters and waits on it until
// the next release, so the next proc in the ready queue releases it in
// turn. The measured cost is pure scheduler work: one ready-queue push
// and pop plus a context switch per operation. At high proc counts the
// queue stays full, which is exactly the regime where a shift-based
// FIFO pays O(n) per pop.
func benchmarkHandoff(b *testing.B, procs int) {
	b.ReportAllocs()
	iters := b.N/procs + 1
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var sig Signal
	releases := 0
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			next := &released{count: &releases}
			for j := 0; j < iters; j++ {
				releases++
				sig.FireAll()
				next.after = releases
				sig.WaitUntil(p, next)
			}
			releases++
			sig.FireAll()
		})
	}
	b.ResetTimer()
	if err := co.Run(); err != nil {
		b.Fatal(err)
	}
}

// released is a Cond that holds once the count of releases has moved
// past after: a proc that bumps the count at every FireAll waits with
// it until the next one.
type released struct {
	count *int
	after int
}

func (r *released) Ready() bool    { return *r.count != r.after }
func (r *released) String() string { return "ping-pong" }

func BenchmarkReadyQueuePop100Procs(b *testing.B) { benchmarkHandoff(b, 100) }
func BenchmarkReadyQueuePop1kProcs(b *testing.B)  { benchmarkHandoff(b, 1000) }
func BenchmarkReadyQueuePop10kProcs(b *testing.B) { benchmarkHandoff(b, 10000) }

// BenchmarkEventSchedule measures Kernel.At/After plus heap and
// allocation costs: a single proc sleeping b.N times schedules and fires
// one event per iteration.
func BenchmarkEventSchedule(b *testing.B) {
	b.ReportAllocs()
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("timer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := co.Run(); err != nil {
		b.Fatal(err)
	}
}

// atLeast is a WaitUntil condition on a counter, built once per waiter
// so waiting allocates nothing.
type atLeast struct {
	n    *int
	want int
}

func (c *atLeast) Ready() bool    { return *c.n >= c.want }
func (c *atLeast) String() string { return "count" }

// BenchmarkGather64 measures one 64-way gather per op, the shape of a
// DPML leader collecting its node's slots: 64 contributors arrive at
// staggered instants, each releasing the leader's signal, and the leader
// then releases them all. switches/op is the coroutine resumes per
// gather; releases that leave the leader's condition false cost none.
func BenchmarkGather64(b *testing.B) {
	b.ReportAllocs()
	const ways = 64
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var gather, result Signal
	filled, published := 0, 0
	k.Spawn("leader", func(p *Proc) {
		full := &atLeast{&filled, ways}
		for i := 0; i < b.N; i++ {
			gather.WaitUntil(p, full)
			filled = 0
			published++
			result.FireAll()
		}
	})
	for c := 0; c < ways; c++ {
		d := Duration(c%8+1) * Nanosecond
		k.Spawn(fmt.Sprintf("c%d", c), func(p *Proc) {
			done := &atLeast{&published, 0}
			for i := 0; i < b.N; i++ {
				p.Sleep(d)
				filled++
				gather.FireAll()
				done.want = i + 1
				result.WaitUntil(p, done)
			}
		})
	}
	b.ResetTimer()
	if err := co.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Stats.ContextSwitch)/float64(b.N), "switches/op")
}

// BenchmarkCopyLoop measures the kernel side of a shared-memory copy: an
// event at the end of the startup starts a completion that wakes the
// proc, which parks once on ArmWake, as MemChannel.Copy does with its
// flow. Eight procs copy concurrently with different drain times, so
// wakeups interleave. switches/op is the coroutine resumes per copy.
func BenchmarkCopyLoop(b *testing.B) {
	b.ReportAllocs()
	const procs = 8
	iters := b.N/procs + 1
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	for i := 0; i < procs; i++ {
		drain := Duration(i+1) * 10 * Nanosecond
		k.Spawn(fmt.Sprintf("copier%d", i), func(p *Proc) {
			start := func() { k.After(drain, p.Wake()) }
			for j := 0; j < iters; j++ {
				k.After(180*Nanosecond, start)
				p.ArmWake("shm copy")
				p.Park()
			}
		})
	}
	b.ResetTimer()
	if err := co.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Stats.ContextSwitch)/float64(procs*iters), "switches/op")
}

// BenchmarkEventScheduleFanout measures the event path with a populated
// heap: 64 procs sleeping concurrently keep ~64 events live, so every
// push and pop pays a real heap traversal.
func BenchmarkEventScheduleFanout(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	iters := b.N/procs + 1
	co := NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	for i := 0; i < procs; i++ {
		d := Duration(i + 1)
		k.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(d * Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := co.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRescheduleBurst measures re-keying pending events in event
// sets, one op per round of re-keys followed by a one-tick sleep, whose
// pop restores every re-keyed set. Each entry stands for a flow with a
// fixed byte count left; a round re-fits a set's entries as a water-fill
// does, to now plus bytes over a new shared rate, so an entry keeps its
// place within its set but moves against every other set's. Two
// regimes:
//
//   - 10k: 10,240 pending events in 160 sets of 64, every entry
//     re-keyed per round: the allreduce-10k shape, where each node's
//     memory channel re-fits all its flows at once;
//   - 4k-set: one 4,096-entry set with 4 re-keys per round: a large
//     network set after a water-fill that moved few flows.
func BenchmarkRescheduleBurst(b *testing.B) {
	for _, bc := range []struct {
		name              string
		sets, size, burst int
	}{
		{"10k", 160, 64, 64},
		{"4k-set", 1, 4096, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			co := NewCoordinator(1, 1, 0)
			k := co.KernelFor(0)
			k.Spawn("burst", func(p *Proc) {
				rng := uint64(0)
				draw := func(n uint64) uint64 {
					rng = splitmix64(rng)
					return rng % n
				}
				sets := make([]*EventSet, bc.sets)
				evs := make([][]*Event, bc.sets)
				bytes := make([][]Time, bc.sets)
				for s := range sets {
					sets[s] = k.NewEventSet()
					for i := 0; i < bc.size; i++ {
						bytes[s] = append(bytes[s], Time(1+draw(1<<20)))
						evs[s] = append(evs[s], sets[s].At(k.Now().Add(Second)+bytes[s][i], func() {}))
					}
				}
				b.ResetTimer()
				for r := 0; r < b.N; r++ {
					for s, set := range sets {
						rate := Time(1 + draw(4))
						for j := 0; j < bc.burst; j++ {
							i := j
							if bc.burst < bc.size {
								i = int(draw(uint64(bc.size)))
							}
							set.Reschedule(evs[s][i], k.Now().Add(Second)+bytes[s][i]*rate)
						}
					}
					p.Sleep(1)
				}
				b.StopTimer()
			})
			if err := co.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
