package fabric

import (
	"fmt"
	"testing"

	"dpml/internal/race"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// steadyAllocs warms op up, so every free list and scratch slice it
// touches has reached its steady size, then measures the allocations of
// one further call. It must run on a proc.
func steadyAllocs(op func()) float64 {
	for i := 0; i < 4; i++ {
		op()
	}
	return testing.AllocsPerRun(100, op)
}

// TestMemChannelCopyDoesNotAllocate covers both ways a copy's startup
// can end: in place, when nothing else is pending, and through a wakeup
// event that starts the flow, when an earlier event is.
func TestMemChannelCopyDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, viaHeap := range []bool{false, true} {
		var allocs float64
		runFlows(t, func(k *sim.Kernel, _ *FlowNet, p *sim.Proc) {
			m := NewMemChannel(k, topology.ClusterA(), 0)
			nop := func() {}
			allocs = steadyAllocs(func() {
				if viaHeap {
					k.After(sim.Nanosecond, nop)
				}
				m.ArmCopy(p, false, 64<<10)
				p.Park()
			})
		})
		if allocs != 0 {
			t.Fatalf("viaHeap=%v: a MemChannel copy allocates %v objects per copy, want 0", viaHeap, allocs)
		}
	}
}

// TestFlowCycleDoesNotAllocate starts a flow and waits for its completion
// over the two link paths Network.launch builds, passed the same way: a
// path within a leaf subtree (tx, up, down, rx) and one across the core
// (tx, up, coreUp, coreDn, down, rx).
func TestFlowCycleDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	paths := []struct {
		name  string
		start func(n *FlowNet, l []*Link, done func())
	}{
		{"4links", func(n *FlowNet, l []*Link, done func()) {
			n.Start(1<<20, unlimited, done, l[0], l[1], l[4], l[5])
		}},
		{"6links", func(n *FlowNet, l []*Link, done func()) {
			n.Start(1<<20, unlimited, done, l[0], l[1], l[2], l[3], l[4], l[5])
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			// Links belong to one FlowNet, so each subtest builds its own.
			l := make([]*Link, maxPathLinks)
			for i := range l {
				l[i] = NewLink(fmt.Sprintf("l%d", i), 10e9)
			}
			var allocs float64
			runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
				done := p.Wake()
				allocs = steadyAllocs(func() {
					path.start(n, l, done)
					p.ArmWake("flow")
					p.Park()
				})
			})
			if allocs != 0 {
				t.Fatalf("a %s flow allocates %v objects per cycle, want 0", path.name, allocs)
			}
		})
	}
}
