package fabric

import (
	"fmt"
	"math"
	"testing"

	"dpml/internal/sim"
)

// runFlows drives a kernel with a single proc that starts flows and waits
// for them all.
func runFlows(t *testing.T, body func(k *sim.Kernel, n *FlowNet, p *sim.Proc)) sim.Time {
	t.Helper()
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	k.Spawn("driver", func(p *sim.Proc) { body(k, n, p) })
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	return k.Now()
}

func waitFlows(p *sim.Proc, count int, start func(done func())) {
	wg := join{n: count}
	start(wg.done)
	wg.wait(p, "flows")
}

// join counts the flows or transfers a test proc waits for: each one's
// completion callback is done, and wait parks the proc until n of them
// have run.
type join struct {
	n int
	p *sim.Proc // the waiting proc, while it waits
}

func (j *join) done() {
	if j.n--; j.n == 0 && j.p != nil {
		wake := j.p.Wake()
		j.p = nil
		wake()
	}
}

func (j *join) wait(p *sim.Proc, why string) {
	if j.n > 0 {
		j.p = p
		p.ArmWake(why)
		p.Park()
	}
}

func TestSingleFlowUncontended(t *testing.T) {
	// 1 MB at a 1 GB/s cap over a 10 GB/s link: exactly 1 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 10e9)
		waitFlows(p, 1, func(done func()) {
			n.Start(1_000_000, 1e9, done, l)
		})
	})
	if end != sim.Time(sim.Millisecond) {
		t.Fatalf("flow finished at %v, want 1ms", end)
	}
}

func TestLinkSharingFairly(t *testing.T) {
	// Two identical flows on a 2 GB/s link with 10 GB/s caps each get
	// 1 GB/s: 1 MB takes 1 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 2e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 10e9, done, l)
			n.Start(1_000_000, 10e9, done, l)
		})
	})
	if end != sim.Time(sim.Millisecond) {
		t.Fatalf("flows finished at %v, want 1ms", end)
	}
}

func TestPerFlowCapBinds(t *testing.T) {
	// A single flow on a fat link but capped at 0.5 GB/s: 1 MB takes 2 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 100e9)
		waitFlows(p, 1, func(done func()) {
			n.Start(1_000_000, 0.5e9, done, l)
		})
	})
	if end != sim.Time(2*sim.Millisecond) {
		t.Fatalf("flow finished at %v, want 2ms", end)
	}
}

func TestCapFreesBandwidthForOthers(t *testing.T) {
	// On a 3 GB/s link: flow X capped at 1 GB/s, flow Y capped at 10
	// GB/s. Max-min: X gets 1, Y gets 2. X moves 1 MB (1 ms), Y moves
	// 2 MB (1 ms). Both end at 1 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 3e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 1e9, done, l)
			n.Start(2_000_000, 10e9, done, l)
		})
	})
	if end != sim.Time(sim.Millisecond) {
		t.Fatalf("flows finished at %v, want 1ms", end)
	}
}

func TestRateReallocatedOnDeparture(t *testing.T) {
	// 2 GB/s link, two 10GB/s-capped flows: A has 1 MB, B has 2 MB.
	// Phase 1: both at 1 GB/s until A finishes at 1 ms (B has 1 MB
	// left). Phase 2: B alone at 2 GB/s, 0.5 ms more. B ends at 1.5 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 2e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 10e9, done, l)
			n.Start(2_000_000, 10e9, done, l)
		})
	})
	want := sim.Time(1500 * sim.Microsecond)
	if end != want {
		t.Fatalf("last flow finished at %v, want %v", end, want)
	}
}

func TestRateReallocatedOnArrival(t *testing.T) {
	// 2 GB/s link. Flow A (4 MB) starts alone at t=0: 2 GB/s. At t=1ms
	// (2 MB left) flow B (1 MB) arrives: both at 1 GB/s. B done at 2ms,
	// A has 1 MB left, finishes at 2.5 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 2e9)
		var wg join
		wg.n = 2
		n.Start(4_000_000, 10e9, wg.done, l)
		p.Sleep(sim.Millisecond)
		n.Start(1_000_000, 10e9, wg.done, l)
		wg.wait(p, "flows")
	})
	want := sim.Time(2500 * sim.Microsecond)
	if end != want {
		t.Fatalf("last flow finished at %v, want %v", end, want)
	}
}

func TestMultiLinkPathBottleneck(t *testing.T) {
	// Path through a 10 GB/s uplink and a 1 GB/s downlink: the narrow
	// link binds. 1 MB takes 1 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		up := NewLink("up", 10e9)
		down := NewLink("down", 1e9)
		waitFlows(p, 1, func(done func()) {
			n.Start(1_000_000, 100e9, done, up, down)
		})
	})
	if end != sim.Time(sim.Millisecond) {
		t.Fatalf("flow finished at %v, want 1ms", end)
	}
}

func TestCrossTrafficMaxMin(t *testing.T) {
	// Links L1 (1 GB/s) and L2 (2 GB/s). Flow A crosses both, flow B
	// only L2. Max-min: A limited by L1 share; A and B both unfrozen on
	// L2 share 1 each; L1 gives A 1. So A=1 on L1... water-fill: first
	// bottleneck is L1 (1/1=1) vs L2 (2/2=1): both tie at 1. A=1, B=1.
	// With 1 MB each both end at 1 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l1 := NewLink("l1", 1e9)
		l2 := NewLink("l2", 2e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 10e9, done, l1, l2)
			n.Start(1_000_000, 10e9, done, l2)
		})
	})
	if end != sim.Time(sim.Millisecond) {
		t.Fatalf("flows finished at %v, want 1ms", end)
	}
}

func TestCrossTrafficAsymmetric(t *testing.T) {
	// L1 = 1 GB/s carries A only; L2 = 3 GB/s carries A and B.
	// Max-min: A bound by L1 at 1; B then gets 2 on L2.
	// A: 1 MB at 1 GB/s = 1 ms. B: 2 MB at 2 GB/s = 1 ms.
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l1 := NewLink("l1", 1e9)
		l2 := NewLink("l2", 3e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 10e9, done, l1, l2)
			n.Start(2_000_000, 10e9, done, l2)
		})
	})
	if end != sim.Time(sim.Millisecond) {
		t.Fatalf("flows finished at %v, want 1ms", end)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 1e9)
		waitFlows(p, 1, func(done func()) {
			n.Start(0, 1e9, done, l)
		})
	})
	if end != 0 {
		t.Fatalf("zero-byte flow took %v", end)
	}
}

func TestManyFlowsAggregateThroughputConserved(t *testing.T) {
	// 16 equal flows over one 8 GB/s link, caps 1 GB/s each: each runs
	// at 0.5 GB/s; 1 MB each finishes at 2 ms; the link never exceeds
	// capacity (implied by finish time: 16 MB / 8 GB/s = 2 ms exactly).
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 8e9)
		waitFlows(p, 16, func(done func()) {
			for i := 0; i < 16; i++ {
				n.Start(1_000_000, 1e9, done, l)
			}
		})
	})
	if end != sim.Time(2*sim.Millisecond) {
		t.Fatalf("flows finished at %v, want 2ms", end)
	}
}

func TestStaggeredFlowsConserveWork(t *testing.T) {
	// Random-ish staggered starts: total bytes / capacity lower-bounds
	// the makespan; per-flow caps upper-bound it. Verifies no bytes are
	// lost or duplicated across reallocation events.
	var totalBytes int64
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 4e9)
		var wg join
		sizes := []int64{100_000, 2_000_000, 350_000, 1_200_000, 900_000, 50_000, 777_000}
		wg.n = len(sizes)
		for i, s := range sizes {
			totalBytes += s
			n.Start(s, 1.5e9, wg.done, l)
			p.Sleep(sim.Duration(i*137) * sim.Microsecond)
		}
		wg.wait(p, "flows")
	})
	minTime := sim.DurationOfSeconds(float64(totalBytes) / 4e9)
	if sim.Duration(end) < minTime {
		t.Fatalf("finished at %v, faster than link capacity allows (%v)", end, minTime)
	}
	// Generous upper bound: serial at the slowest per-flow rate plus all
	// stagger delays.
	maxTime := sim.DurationOfSeconds(float64(totalBytes)/1.5e9) + 5*sim.Millisecond
	if sim.Duration(end) > maxTime {
		t.Fatalf("finished at %v, slower than worst case %v", end, maxTime)
	}
}

func TestFlowNetStats(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	k.Spawn("driver", func(p *sim.Proc) {
		l := NewLink("l", 1e9)
		waitFlows(p, 3, func(done func()) {
			for i := 0; i < 3; i++ {
				n.Start(1000, 1e9, done, l)
			}
		})
		if n.live != 0 {
			t.Errorf("live = %d after completion", n.live)
		}
		if l.live != 0 {
			t.Errorf("link still has %d flows", l.live)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Started != 3 || n.Stats.Completed != 3 {
		t.Fatalf("stats %+v, want 3 started/completed", n.Stats)
	}
}

func TestCompletionFastPathSkipsRecompute(t *testing.T) {
	// Two cap-bound flows share one fat link (2 GB/s of demand on 100
	// GB/s): the link is never a bottleneck, so each completion must take
	// the incremental fast path instead of scheduling a full
	// settle-and-refill recompute.
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	k.Spawn("driver", func(p *sim.Proc) {
		l := NewLink("fat", 100e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 1e9, done, l) // finishes at 1 ms
			n.Start(2_000_000, 1e9, done, l) // finishes at 2 ms
		})
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Recompute != 1 {
		t.Errorf("Recompute = %d, want 1 (only the start batch)", n.Stats.Recompute)
	}
	if n.Stats.FastPath != 2 {
		t.Errorf("FastPath = %d, want 2 (both completions skip the refill)", n.Stats.FastPath)
	}
	// Kernel event budget: one batched recompute plus two completion
	// events — the fast path must not schedule anything extra.
	if k.Stats.Events != 3 {
		t.Errorf("kernel events = %d, want 3 (1 recompute + 2 completions)", k.Stats.Events)
	}
	if n.live != 0 {
		t.Errorf("live = %d after completion", n.live)
	}
}

func TestCompletionOnBottleneckLinkRecomputes(t *testing.T) {
	// Contrast case: the shared link is saturated, so a departure frees
	// bandwidth the survivor must pick up — every completion must trigger
	// a full recompute (and the survivor must actually speed up: see
	// TestRateReallocatedOnDeparture for the timing assertion).
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	k.Spawn("driver", func(p *sim.Proc) {
		l := NewLink("narrow", 2e9)
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 10e9, done, l)
			n.Start(2_000_000, 10e9, done, l)
		})
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.FastPath != 0 {
		t.Errorf("FastPath = %d, want 0 (bottleneck departures must refill)", n.Stats.FastPath)
	}
	if n.Stats.Recompute != 3 {
		t.Errorf("Recompute = %d, want 3 (start batch + one per departure)", n.Stats.Recompute)
	}
	// 1 start-batch recompute + 2 completions + 2 departure recomputes.
	if k.Stats.Events != 5 {
		t.Errorf("kernel events = %d, want 5", k.Stats.Events)
	}
}

func TestFastPathPreservesLinkAccounting(t *testing.T) {
	// Skipping the settle pass must not lose byte or busy accounting:
	// the final-leg credit in complete covers the unsettled span.
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	l := NewLink("fat", 100e9)
	k.Spawn("driver", func(p *sim.Proc) {
		waitFlows(p, 2, func(done func()) {
			n.Start(1_000_000, 1e9, done, l)
			n.Start(2_000_000, 1e9, done, l)
		})
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.FastPath != 2 {
		t.Fatalf("FastPath = %d, want 2", n.Stats.FastPath)
	}
	if got := l.BytesMoved(); got != 3_000_000 {
		t.Errorf("BytesMoved = %d, want 3000000", got)
	}
	if busy := l.BusyTime(); busy != 2*sim.Millisecond {
		t.Errorf("BusyTime = %v, want 2ms (flows span [0,1ms] and [0,2ms])", busy)
	}
	if l.live != 0 {
		t.Errorf("link live = %d after completion", l.live)
	}
}

func TestWaterFillInvariants(t *testing.T) {
	// Property-style check on the water-filler directly: random flow
	// populations must never oversubscribe a link, never exceed a flow
	// cap, and leave no slack when a flow could go faster.
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	rng := uint64(12345)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	for trial := 0; trial < 50; trial++ {
		nLinks := 1 + next(5)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = NewLink(fmt.Sprintf("t%d.l%d", trial, i), float64(1+next(10))*1e9)
		}
		nFlows := 1 + next(20)
		n.active = n.active[:0]
		for i := 0; i < nFlows; i++ {
			f := &flow{cap: float64(1+next(8)) * 0.5e9, remaining: 1e6}
			used := map[int]bool{}
			for j := 0; j <= next(nLinks); j++ {
				li := next(nLinks)
				if used[li] {
					continue
				}
				used[li] = true
				f.links = append(f.links, links[li])
				links[li].addFlow(f)
			}
			if len(f.links) == 0 {
				f.links = append(f.links, links[0])
				links[0].addFlow(f)
			}
			n.active = append(n.active, f)
		}
		comps := n.findComponents()
		for ci := 0; ci < comps; ci++ {
			n.waterFill(&n.comps[ci])
		}
		const eps = 1e-3
		for _, l := range links {
			sum := 0.0
			for _, f := range l.flows {
				sum += f.rate
			}
			if sum > l.capacity*(1+eps) {
				t.Fatalf("trial %d: link %s oversubscribed: %g > %g", trial, l.name, sum, l.capacity)
			}
		}
		for fi, f := range n.active {
			if f.rate > f.cap*(1+eps) {
				t.Fatalf("trial %d: flow %d rate %g exceeds cap %g", trial, fi, f.rate, f.cap)
			}
			if f.rate <= 0 {
				t.Fatalf("trial %d: flow %d starved", trial, fi)
			}
			// Max-min: if the flow is below its cap, at least one of its
			// links must be (nearly) saturated.
			if f.rate < f.cap*(1-eps) {
				saturated := false
				for _, l := range f.links {
					sum := 0.0
					for _, g := range l.flows {
						sum += g.rate
					}
					if sum >= l.capacity*(1-eps) {
						saturated = true
						break
					}
				}
				if !saturated {
					t.Fatalf("trial %d: flow %d below cap with slack everywhere", trial, fi)
				}
			}
		}
		// Detach flows for the next trial.
		for _, l := range links {
			l.flows = nil
		}
	}
}

func TestTransferTimeMatchesFluidModel(t *testing.T) {
	// Cross-check: end-to-end completion of one flow equals
	// TransferTime for a spread of sizes.
	for _, bytes := range []int64{1, 100, 4096, 1 << 20, 64 << 20} {
		bytes := bytes
		end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
			l := NewLink("l", 12.5e9)
			waitFlows(p, 1, func(done func()) {
				n.Start(bytes, 12.5e9, done, l)
			})
		})
		want := sim.TransferTime(bytes, 12.5e9)
		got := sim.Duration(end)
		if d := math.Abs(float64(got - want)); d > 2 {
			t.Errorf("bytes=%d: completion %v, want %v", bytes, got, want)
		}
	}
}

func TestLinkAccountingConservation(t *testing.T) {
	// Bytes moved through each link must equal the payloads carried, and
	// busy time must match the active span (not multiplied by the flow
	// count).
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	l := NewLink("l", 2e9)
	k.Spawn("driver", func(p *sim.Proc) {
		var wg join
		wg.n = 2
		// Two 1 MB flows sharing the link: 1 GB/s each, both end at 1ms.
		n.Start(1_000_000, 10e9, wg.done, l)
		n.Start(1_000_000, 10e9, wg.done, l)
		wg.wait(p, "flows")
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if got := l.BytesMoved(); got != 2_000_000 {
		t.Fatalf("BytesMoved = %d, want 2000000", got)
	}
	busy := l.BusyTime()
	if busy != sim.Millisecond {
		t.Fatalf("BusyTime = %v, want 1ms (not double-counted)", busy)
	}
}

func TestLinkAccessors(t *testing.T) {
	l := NewLink("x", 5e9)
	if l.Name() != "x" || l.Capacity() != 5e9 || l.live != 0 {
		t.Fatal("accessors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity link accepted")
		}
	}()
	NewLink("bad", 0)
}
