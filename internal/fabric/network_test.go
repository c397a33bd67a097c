package fabric

import (
	"errors"
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// newTestNet builds a single-shard coordinator, its network-LP flow
// scheduler, and a network for nodes compute nodes of c. The returned
// kernel owns every LP, so tests can Spawn on it directly and run the
// coordinator.
func newTestNet(c *topology.Cluster, nodes int) (*sim.Coordinator, *sim.Kernel, *FlowNet, *Network) {
	coord := sim.NewCoordinator(nodes, 1, c.Net.WireLatency)
	k := coord.NetKernel()
	fn := NewFlowNet(k)
	return coord, k, fn, NewNetwork(coord, fn, c, nodes)
}

func TestNetworkTransferBasics(t *testing.T) {
	c := topology.ClusterB()
	co, k, _, net := newTestNet(c, 2)
	var arrived sim.Time
	src, dst := net.Endpoint(0), net.Endpoint(1)
	k.Spawn("sender", func(p *sim.Proc) {
		wake := p.Wake()
		net.StartTransfer(new(Transfer), src, dst, 1<<20, func() { arrived = k.Now(); wake() }, nil)
		p.ArmWake("arrive")
		p.Park()
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Duration(sim.TransferTime(1<<20, c.Net.PerFlowCap)) + c.Net.WireLatency
	if got := sim.Duration(arrived); got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
	if net.Stats.Messages != 1 || net.Stats.Bytes != 1<<20 {
		t.Fatalf("stats %+v", net.Stats)
	}
}

func TestNetworkConcurrencyScalesOnIB(t *testing.T) {
	// The Fig 1b property: k concurrent pairs on IB move k MB in barely
	// more than one pair moves 1 MB, because per-flow caps (not the
	// link) bind.
	c := topology.ClusterB()
	elapsed := func(pairs int) sim.Duration {
		co, k, _, net := newTestNet(c, 2)
		k.Spawn("driver", func(p *sim.Proc) {
			var wg join
			wg.n = pairs
			for i := 0; i < pairs; i++ {
				net.StartTransfer(new(Transfer), net.Endpoint(0), net.Endpoint(1), 1<<20, wg.done, nil)
			}
			wg.wait(p, "transfers")
		})
		if err := co.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(k.Now())
	}
	t1, t8 := elapsed(1), elapsed(8)
	// 8 pairs move 8x the data; with per-flow caps binding, time should
	// stay within 25% of a single pair.
	if float64(t8) > float64(t1)*1.25 {
		t.Fatalf("8-pair time %v vs 1-pair %v: IB concurrency not scaling", t8, t1)
	}
}

func TestNetworkConcurrencyFlatOnOmniPathLarge(t *testing.T) {
	// The Fig 1c Zone C property: on Omni-Path one flow nearly saturates
	// the link, so 8 concurrent 1 MB transfers take ~8x one transfer.
	c := topology.ClusterC()
	elapsed := func(pairs int) sim.Duration {
		co, k, _, net := newTestNet(c, 2)
		k.Spawn("driver", func(p *sim.Proc) {
			var wg join
			wg.n = pairs
			for i := 0; i < pairs; i++ {
				net.StartTransfer(new(Transfer), net.Endpoint(0), net.Endpoint(1), 1<<20, wg.done, nil)
			}
			wg.wait(p, "transfers")
		})
		if err := co.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(k.Now())
	}
	t1, t8 := elapsed(1), elapsed(8)
	ratio := float64(t8) / float64(t1)
	if ratio < 6 {
		t.Fatalf("8-pair/1-pair time ratio %.2f, want ~8 (link-bound)", ratio)
	}
}

func TestInjectDelayEnforcesMessageGap(t *testing.T) {
	c := topology.ClusterC()
	co, k, _, net := newTestNet(c, 2)
	ep0 := net.Endpoint(0)
	ep0b := net.Endpoint(0) // second process on the same NIC
	ep1 := net.Endpoint(1)
	k.Spawn("driver", func(p *sim.Proc) {
		// Back-to-back injections at the same instant must space out by
		// MsgGap each, and the NIC injector is shared between the node's
		// processes.
		if d := ep0.InjectDelay(); d != 0 {
			t.Errorf("first injection delayed %v", d)
		}
		if d := ep0.InjectDelay(); d != c.Net.MsgGap {
			t.Errorf("second injection delayed %v, want %v", d, c.Net.MsgGap)
		}
		if d := ep0b.InjectDelay(); d != 2*c.Net.MsgGap {
			t.Errorf("third injection (other process) delayed %v, want %v", d, 2*c.Net.MsgGap)
		}
		// A different node's NIC is independent.
		if d := ep1.InjectDelay(); d != 0 {
			t.Errorf("other node injection delayed %v", d)
		}
		// After the gap has passed, no delay.
		p.Sleep(1000 * millisecond)
		if d := ep0.InjectDelay(); d != 0 {
			t.Errorf("injection after idle delayed %v", d)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOversubscribedCoreBottleneck(t *testing.T) {
	// Cluster D has a 5/4 oversubscribed core. With every node blasting
	// full-rate traffic at the opposite leaf subtree, the aggregate must
	// be limited by the per-subtree core capacity. (The leaf radix is
	// pinned to half the job so all traffic crosses the core; same-leaf
	// traffic legitimately never sees it.)
	c := topology.ClusterD()
	const nodes = 8
	c.Net.LeafRadix = nodes / 2
	co, k, _, net := newTestNet(c, nodes)
	if net.coreUp == nil {
		t.Fatal("cluster D network must model an oversubscribed core")
	}
	if got := net.sub.Count; got != 2 {
		t.Fatalf("subtrees = %d, want 2", got)
	}
	const bytes = 4 << 20
	k.Spawn("driver", func(p *sim.Proc) {
		var wg join
		// node i -> node (i+nodes/2)%nodes, 2 sender processes each, so
		// every flow crosses both subtrees' core links
		for i := 0; i < nodes; i++ {
			for j := 0; j < 2; j++ {
				wg.n++
				net.StartTransfer(new(Transfer), net.Endpoint(i), net.Endpoint((i+nodes/2)%nodes), bytes, wg.done, nil)
			}
		}
		wg.wait(p, "transfers")
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	// Each subtree's core uplink carries half the total at capacity
	// LinkBandwidth * (nodes/2) / over, so the whole exchange cannot beat
	// total / (LinkBandwidth * nodes / over) — the same aggregate bound
	// the lumped-core model enforced.
	total := float64(nodes * 2 * bytes)
	coreCap := c.Net.LinkBandwidth * float64(nodes) / c.Net.Oversubscription
	minTime := sim.DurationOfSeconds(total / coreCap)
	if sim.Duration(k.Now()) < minTime-sim.Microsecond {
		t.Fatalf("finished at %v, faster than core capacity permits (%v)", k.Now(), minTime)
	}
}

func TestNetworkPanicsOnBadEndpoints(t *testing.T) {
	_, _, _, net := newTestNet(topology.ClusterB(), 2)
	cases := []func(){
		func() { net.StartTransfer(new(Transfer), net.Endpoint(0), net.Endpoint(0), 10, func() {}, nil) }, // same node
		func() { net.Endpoint(5) }, // bad node
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMemChannelCopyCosts(t *testing.T) {
	c := topology.ClusterA()
	elapsed := func(cross bool, bytes int64) sim.Duration {
		co := sim.NewCoordinator(1, 1, 0)
		k := co.KernelFor(0)
		m := NewMemChannel(k, c, 0)
		k.Spawn("copier", func(p *sim.Proc) { m.ArmCopy(p, cross, bytes); p.Park() })
		if err := co.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(k.Now())
	}
	// Intra-socket: startup + bytes/CopyRate.
	got := elapsed(false, 1<<20)
	want := c.Mem.CopyStartup + sim.TransferTime(1<<20, c.Mem.CopyRate)
	if got != want {
		t.Fatalf("intra-socket copy %v, want %v", got, want)
	}
	// Cross-socket pays the extra latency and the slower rate.
	gotX := elapsed(true, 1<<20)
	wantX := c.Mem.CopyStartup + c.Mem.CrossSocketExtra + sim.TransferTime(1<<20, c.Mem.CrossSocketRate)
	if gotX != wantX {
		t.Fatalf("cross-socket copy %v, want %v", gotX, wantX)
	}
	if gotX <= got {
		t.Fatal("cross-socket copy must cost more than intra-socket")
	}
	// Zero bytes: just the startup.
	if z := elapsed(false, 0); z != sim.Duration(c.Mem.CopyStartup) {
		t.Fatalf("zero-byte copy %v, want startup %v", z, c.Mem.CopyStartup)
	}
}

func TestMemChannelConcurrentCopiesScale(t *testing.T) {
	// Fig 1a property: many concurrent intra-node copies proceed nearly
	// in parallel because aggregate memory bandwidth far exceeds one
	// core's streaming rate.
	c := topology.ClusterA()
	elapsed := func(copiers int) sim.Duration {
		co := sim.NewCoordinator(1, 1, 0)
		k := co.KernelFor(0)
		m := NewMemChannel(k, c, 0)
		for i := 0; i < copiers; i++ {
			k.Spawn("copier", func(p *sim.Proc) { m.ArmCopy(p, false, 1<<20); p.Park() })
		}
		if err := co.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(k.Now())
	}
	t1, t14 := elapsed(1), elapsed(14)
	if float64(t14) > float64(t1)*1.2 {
		t.Fatalf("14 concurrent copies took %v vs single %v: shm concurrency broken", t14, t1)
	}
}

func TestMemChannelAggregateBandwidthBinds(t *testing.T) {
	// Enough concurrent copiers must eventually saturate the node's
	// aggregate memory bandwidth.
	c := topology.ClusterA()
	copiers := int(c.Mem.AggregateBW/c.Mem.CopyRate) * 2 // 2x oversubscribed
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	m := NewMemChannel(k, c, 0)
	const bytes = 1 << 20
	for i := 0; i < copiers; i++ {
		k.Spawn("copier", func(p *sim.Proc) { m.ArmCopy(p, false, bytes); p.Park() })
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	minTime := sim.DurationOfSeconds(float64(copiers*bytes)/c.Mem.AggregateBW) + c.Mem.CopyStartup
	if sim.Duration(k.Now()) < minTime-sim.Microsecond {
		t.Fatalf("%d copies finished at %v, faster than memory bandwidth allows (%v)",
			copiers, k.Now(), minTime)
	}
}

func TestSharpUnavailableOnNonMellanox(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	for _, c := range []*topology.Cluster{topology.ClusterB(), topology.ClusterC(), topology.ClusterD()} {
		if _, err := NewSharp(k, c); !errors.Is(err, ErrSharpUnavailable) {
			t.Errorf("%s: NewSharp err = %v, want ErrSharpUnavailable", c.Name, err)
		}
	}
}

func TestSharpTreeDepth(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, err := NewSharp(k, topology.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ nodes, depth int }{
		{1, 1}, {2, 1}, {16, 1}, {17, 2}, {256, 2}, {257, 3},
	}
	for _, c := range cases {
		if got := s.TreeDepth(c.nodes); got != c.depth {
			t.Errorf("TreeDepth(%d) = %d, want %d", c.nodes, got, c.depth)
		}
	}
}

func TestSharpGroupLimits(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, err := NewSharp(k, topology.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	max := topology.ClusterA().Sharp.MaxGroups
	for i := 0; i < max; i++ {
		if _, err := s.NewGroup(16, 1); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	if _, err := s.NewGroup(16, 1); !errors.Is(err, ErrSharpGroups) {
		t.Fatalf("over-limit NewGroup err = %v, want ErrSharpGroups", err)
	}
	if _, err := s.NewGroup(0, 1); err == nil {
		t.Fatal("NewGroup(0 nodes) accepted")
	}
}

func TestSharpAllreduceCompletesAllLeaves(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, err := NewSharp(k, topology.ClusterA())
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 16
	g, err := s.NewGroup(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	finish := make([]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		k.Spawn("leaf", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * sim.Microsecond) // staggered arrival
			if _, err := g.Allreduce(p, 256, nil, nil); err != nil {
				t.Error(err)
			}
			finish[i] = p.Now()
		})
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	// All leaves complete at the same instant: last arrival (15us) plus
	// the op latency.
	want := sim.Time(15 * sim.Microsecond).Add(s.OpLatency(nodes, 256))
	for i, f := range finish {
		if f != want {
			t.Fatalf("leaf %d finished at %v, want %v", i, f, want)
		}
	}
	if g.Stats.Ops != 1 {
		t.Fatalf("ops = %d, want 1", g.Stats.Ops)
	}
}

func TestSharpPayloadLimit(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, _ := NewSharp(k, topology.ClusterA())
	g, _ := s.NewGroup(2, 1)
	var gotErr error
	k.Spawn("leaf0", func(p *sim.Proc) {
		_, gotErr = g.Allreduce(p, s.MaxPayload()+1, nil, nil)
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrSharpPayload) {
		t.Fatalf("err = %v, want ErrSharpPayload", gotErr)
	}
}

func TestSharpOutstandingOpsSerialize(t *testing.T) {
	// More concurrent groups than MaxOutstanding: operations must
	// serialize, so total time grows past a single op's latency.
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, _ := NewSharp(k, topology.ClusterA())
	maxOps := topology.ClusterA().Sharp.MaxOutstanding
	groups := maxOps * 3
	const nodes = 4
	opLat := s.OpLatency(nodes, 1024)
	for gi := 0; gi < groups; gi++ {
		g, err := s.NewGroup(nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		for leaf := 0; leaf < nodes; leaf++ {
			k.Spawn("leaf", func(p *sim.Proc) {
				if _, err := g.Allreduce(p, 1024, nil, nil); err != nil {
					t.Error(err)
				}
			})
		}
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	rounds := groups / maxOps
	want := sim.Time(sim.Duration(rounds) * opLat)
	if k.Now() != want {
		t.Fatalf("finished at %v, want %v (%d serialized rounds)", k.Now(), want, rounds)
	}
}

func TestSharpSmallBeatsLargeScaling(t *testing.T) {
	// OpLatency must grow superlinearly enough with payload that the
	// host-based design wins past a few KB (Fig 8 crossover).
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	s, _ := NewSharp(k, topology.ClusterA())
	l8 := s.OpLatency(16, 8)
	l4k := s.OpLatency(16, 4096)
	if l4k < 3*l8 {
		t.Fatalf("4KB op (%v) should cost much more than 8B op (%v)", l4k, l8)
	}
}

func TestNetworkReport(t *testing.T) {
	c := topology.ClusterB()
	co, k, _, net := newTestNet(c, 2)
	src, dst := net.Endpoint(0), net.Endpoint(1)
	k.Spawn("driver", func(p *sim.Proc) {
		net.StartTransfer(new(Transfer), src, dst, 1<<20, p.Wake(), nil)
		p.ArmWake("arrive")
		p.Park()
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	rep := net.Report()
	if len(rep) != 4 { // 2 nodes x (up, down), no core on IB
		t.Fatalf("report has %d links, want 4", len(rep))
	}
	var upBytes, downBytes int64
	for _, lr := range rep {
		switch lr.Name {
		case "n0.up":
			upBytes = lr.Bytes
		case "n1.down":
			downBytes = lr.Bytes
		}
	}
	if upBytes != 1<<20 || downBytes != 1<<20 {
		t.Fatalf("up %d / down %d bytes, want 1MiB each", upBytes, downBytes)
	}
	// Cluster D has a core stage: one up/down pair per leaf subtree (2
	// nodes under one 16-port leaf is a single subtree).
	_, _, _, netD := newTestNet(topology.ClusterD(), 2)
	if got := len(netD.Report()); got != 6 {
		t.Fatalf("cluster D report has %d links, want 6 (incl. subtree core pair)", got)
	}
}

func TestMemChannelReport(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	m := NewMemChannel(k, topology.ClusterA(), 0)
	k.Spawn("copier", func(p *sim.Proc) { m.ArmCopy(p, false, 4096); p.Park() })
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	lr := m.Report()
	if lr.Bytes != 4096 || lr.Busy <= 0 {
		t.Fatalf("mem report %+v", lr)
	}
}
