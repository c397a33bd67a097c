package fabric

import (
	"errors"
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// TestSetLinkCapacityReWaterFills: degrading a link mid-transfer slows
// the flow already crossing it. 1 MB at 2 GB/s; after 0.25 ms (500 KB
// moved) the link drops to 1 GB/s, so the rest takes 0.5 ms more.
func TestSetLinkCapacityReWaterFills(t *testing.T) {
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 2e9)
		k.At(sim.Time(250*sim.Microsecond), func() { n.SetLinkCapacity(l, 1e9) })
		waitFlows(p, 1, func(done func()) {
			n.Start(1_000_000, 10e9, done, l)
		})
	})
	if end != sim.Time(750*sim.Microsecond) {
		t.Fatalf("flow finished at %v, want 750us", end)
	}
}

// TestSetLinkCapacityRestore: a flapping link that recovers mid-transfer
// speeds the flow back up: 0.25 ms at 2 GB/s (500 KB), 0.25 ms at 1 GB/s
// (250 KB), then the remaining 250 KB at 2 GB/s (0.125 ms).
func TestSetLinkCapacityRestore(t *testing.T) {
	end := runFlows(t, func(k *sim.Kernel, n *FlowNet, p *sim.Proc) {
		l := NewLink("l", 2e9)
		k.At(sim.Time(250*sim.Microsecond), func() { n.SetLinkCapacity(l, 1e9) })
		k.At(sim.Time(500*sim.Microsecond), func() { n.SetLinkCapacity(l, 2e9) })
		waitFlows(p, 1, func(done func()) {
			n.Start(1_000_000, 10e9, done, l)
		})
	})
	if end != sim.Time(625*sim.Microsecond) {
		t.Fatalf("flow finished at %v, want 625us", end)
	}
}

// TestSetInjectScaleThrottlesGap: a throttled NIC reserves scaled
// injection slots; restoring scale 1 returns to the nominal gap.
func TestSetInjectScaleThrottlesGap(t *testing.T) {
	c := topology.ClusterB()
	co, k, _, net := newTestNet(c, 2)
	ep := net.Endpoint(0)
	gap := c.Net.MsgGap
	k.Spawn("sender", func(p *sim.Proc) {
		d1 := ep.InjectDelay() // reserves [0, gap)
		d2 := ep.InjectDelay() // reserves [gap, 2*gap)
		net.SetInjectScale(0, 3)
		d3 := ep.InjectDelay() // reserves [2*gap, 5*gap)
		d4 := ep.InjectDelay() // reserves [5*gap, 8*gap)
		net.SetInjectScale(0, 1)
		d5 := ep.InjectDelay() // reserves [8*gap, 9*gap)
		d6 := ep.InjectDelay()
		if d1 != 0 || d2 != sim.Duration(gap) {
			t.Errorf("nominal delays %v %v, want 0 and %v", d1, d2, gap)
		}
		if d4-d3 != 3*gap {
			t.Errorf("throttled gap %v, want %v", d4-d3, 3*gap)
		}
		if d6-d5 != gap {
			t.Errorf("restored gap %v, want %v", d6-d5, gap)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSharpOfflineSeenByAllMembers: an outage beginning while an
// operation is in the switch tree lets that operation complete, and the
// decision for the next operation is made once — by its last arriver —
// so every member of the failed operation gets ErrSharpOffline, and the
// group works again after recovery.
func TestSharpOfflineSeenByAllMembers(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, err := NewSharp(k, topology.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 4
	g, err := s.NewGroup(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fail mid-flight of the first op; it must still complete.
	k.At(sim.Time(0).Add(s.OpLatency(nodes, 256)/2), func() { s.SetFailed(true) })
	errs := make([][3]error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn("leaf", func(p *sim.Proc) {
			_, errs[i][0] = g.Allreduce(p, 256, nil, nil)
			_, errs[i][1] = g.Allreduce(p, 256, nil, nil)
			if i == 0 {
				s.SetFailed(false) // recovery before the third op's last arriver
			}
			_, errs[i][2] = g.Allreduce(p, 256, nil, nil)
		})
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e[0] != nil {
			t.Errorf("leaf %d: in-flight op failed: %v", i, e[0])
		}
		if !errors.Is(e[1], ErrSharpOffline) {
			t.Errorf("leaf %d: op during outage: err = %v, want ErrSharpOffline", i, e[1])
		}
		if e[2] != nil {
			t.Errorf("leaf %d: op after recovery failed: %v", i, e[2])
		}
	}
	if g.Stats.Ops != 2 {
		t.Fatalf("ops = %d, want 2 (the failed op never entered the tree)", g.Stats.Ops)
	}
	if s.failed {
		t.Fatal("Failed() = true after recovery")
	}
}
