package fabric

import (
	"errors"
	"fmt"
	"math"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// Errors reported by the SHArP model.
var (
	// ErrSharpUnavailable is returned when the cluster's fabric has no
	// aggregation support.
	ErrSharpUnavailable = errors.New("fabric: SHArP not available on this fabric")
	// ErrSharpGroups is returned when MaxGroups SHArP communicators
	// already exist.
	ErrSharpGroups = errors.New("fabric: SHArP group limit reached")
	// ErrSharpPayload is returned when an operation exceeds MaxPayload.
	ErrSharpPayload = errors.New("fabric: SHArP payload too large")
	// ErrSharpOffline is returned while the offload is marked failed (see
	// Sharp.SetFailed): the operation never enters the switch tree, and
	// callers are expected to fall back to a host-based algorithm.
	ErrSharpOffline = errors.New("fabric: SHArP offload offline")
)

// Sharp models the fabric-wide SHArP capability: a bounded pool of
// aggregation groups and, per group, a bounded number of outstanding
// operations (the paper: "SHArP can support only a small number of
// concurrent operations and SHArP communicators").
//
// The switch tree is fabric state, so the whole model runs as the
// network LP: callers inject their arrival into the network domain, the
// last arrival launches (or queues) the operation, and completion wakes
// every caller through per-node events that pay at least the tree's
// first-hop latency — which is what makes the model safe under a sharded
// kernel without any shard observing another.
//
//dpml:owner net
type Sharp struct {
	k         *sim.Kernel // the network LP's kernel
	prof      topology.SharpProfile
	link      float64 // leaf injection rate, bytes/sec
	leafRadix int     // fabric leaf radix; shards each group's fold tree
	groups    int
	slots     int        // free outstanding-operation slots (fabric-wide)
	waitq     []*sharpOp // operations waiting for a slot, FIFO
	failed    bool       //dpml:owner shared -- SetFailed documents cross-context toggling
}

// NewSharp builds the SHArP model for a cluster, or returns
// ErrSharpUnavailable when the fabric has none. k must be the network
// LP's kernel.
func NewSharp(k *sim.Kernel, c *topology.Cluster) (*Sharp, error) {
	if !c.Sharp.Available {
		return nil, ErrSharpUnavailable
	}
	return &Sharp{
		k:         k,
		prof:      c.Sharp,
		link:      c.Net.LinkBandwidth,
		leafRadix: c.Net.LeafRadix,
		slots:     c.Sharp.MaxOutstanding,
	}, nil
}

// SetFailed marks the offload unavailable (true) or restores it (false).
// While failed, every operation that would *start* — decided when its
// last caller's arrival reaches the tree — fails with ErrSharpOffline for
// all callers of that operation; operations already in the switch tree
// complete, as they would under a real completion-timeout failure model.
// The fault layer toggles this from network-LP events at outage-window
// boundaries. Runtime callers outside the network LP (a rank reacting to
// a fallback) may also toggle it, but only between their own operations:
// the flag is a plain field whose cross-shard visibility is ordered by
// the window barriers, so a toggle concurrent with an unrelated
// operation's launch would be a determinism bug in the workload, not in
// the model.
func (s *Sharp) SetFailed(v bool) { s.failed = v }

// MaxPayload returns the largest message one operation may carry.
func (s *Sharp) MaxPayload() int { return s.prof.MaxPayload }

// TreeDepth returns the aggregation tree depth for the given number of
// participating nodes: ceil(log_radix(nodes)), minimum 1.
func (s *Sharp) TreeDepth(nodes int) int {
	if nodes <= 1 {
		return 1
	}
	d := int(math.Ceil(math.Log(float64(nodes)) / math.Log(float64(s.prof.Radix))))
	if d < 1 {
		d = 1
	}
	return d
}

// OpLatency returns the modelled time for one in-network allreduce of
// bytes across nodes leaves, measured from the moment the last leaf's
// data reaches its switch: injection of the payload, per-level switch
// reduction on the way up, and the latency of traversing the tree up and
// down.
//
//dpml:minlookahead
func (s *Sharp) OpLatency(nodes int, bytes int) sim.Duration {
	depth := s.TreeDepth(nodes)
	d := s.prof.OpOverhead + sim.Duration(2*depth)*s.prof.HopLatency
	d += sim.TransferTime(int64(bytes), s.link)                                        // leaf injection
	d += sim.Duration(depth) * sim.TransferTime(int64(bytes), s.prof.SwitchReduceRate) // per-level reduce
	return d
}

// WakeLatency returns the smallest delay after which the model ever
// notifies a caller's node: the tree overhead plus one round trip to the
// nearest switch (the NACK path; completed operations take at least
// OpLatency, which is larger). The sharded kernel's lookahead must not
// exceed it.
//
//dpml:minlookahead
func (s *Sharp) WakeLatency() sim.Duration {
	return s.prof.OpOverhead + 2*s.prof.HopLatency
}

// nackLatency is the delay before a caller learns its operation was
// refused (offload offline, or leaves disagreeing on the payload): one
// control round trip through the edge of the tree. Bounded below by the
// kernel's lookahead by construction (see WakeLatency).
//
//dpml:minlookahead
func (s *Sharp) nackLatency() sim.Duration {
	return s.WakeLatency()
}

// NewGroup allocates a SHArP communicator spanning the given compute
// nodes with leadersPerNode calling leaders on each (node-leader designs
// use 1, socket-leader designs one per socket), or returns ErrSharpGroups
// when the fabric-wide group budget is exhausted. The aggregation tree's
// depth is set by the node count — co-located leaders attach to the same
// leaf switch. Groups are allocated before the run starts and held for
// the job lifetime, as MPI communicators hold them, so the budget is
// never returned.
func (s *Sharp) NewGroup(nodes, leadersPerNode int) (*SharpGroup, error) {
	if s.groups >= s.prof.MaxGroups {
		return nil, ErrSharpGroups
	}
	if nodes <= 0 || leadersPerNode <= 0 {
		return nil, fmt.Errorf("fabric: SHArP group with %d nodes x %d leaders", nodes, leadersPerNode)
	}
	s.groups++
	return &SharpGroup{
		sharp:   s,
		nodes:   nodes,
		members: nodes * leadersPerNode,
		sub:     topology.LeafSubtrees(nodes, s.leafRadix),
	}, nil
}

// SharpGroup is one SHArP communicator: the set of leaf nodes plus the
// arrival-collection state for the operation currently forming.
//
//dpml:owner net
type SharpGroup struct {
	sharp   *Sharp
	nodes   int
	members int
	sub     *topology.SubtreeMap // leaf subtrees sharding the fold tree
	cur     *sharpOp             // operation currently collecting arrivals (network LP)

	// Stats counts operations through this group. Owned by the network
	// LP (incremented at launch).
	Stats struct {
		Ops uint64
	}
}

// sharpCall is one caller's side of one operation: where to deliver the
// verdict and the parked proc's wakeup. It is the node/net handoff
// cell: the net LP fills it and schedules wake with a
// lookahead-respecting delay, the caller's proc reads it after the wake.
//
//dpml:owner shared
type sharpCall struct {
	lp     int    // caller's node LP
	wake   func() // the caller's cached wakeup (sim.Proc.Wake)
	result any
	err    error
}

// sharpOp is one collective operation's state, owned by the network LP.
//
// The fold tree is sharded by leaf subtree, matching the switch hardware:
// each leaf switch reduces its own nodes' contributions first (parts[s],
// folded in arrival-event order — a canonical order of virtual time, then
// arriving node, then creation sequence), and the upper tree combines the
// per-subtree partials in subtree-id order at launch. Both orders are
// independent of the shard count, so the floating-point fold is
// identical across every execution configuration.
//
//dpml:owner net
type sharpOp struct {
	group   *SharpGroup
	bytes   int
	arrived int
	parts   []any // per-subtree partial accumulators
	reduce  func(acc, x any) any
	calls   []*sharpCall
}

// Allreduce performs one in-network reduction of bytes. Every leaf's
// calling proc (one leader per leaf) must call it; all callers return at
// the operation's completion time with the reduced result. The operation
// occupies one outstanding-operation slot from when the last caller
// arrives until completion, so concurrent operations beyond
// MaxOutstanding serialize — this is the scalability ceiling that rules
// out per-DPML-leader SHArP (Section 4.3).
//
// contrib is this leaf's payload; reduce folds two payloads (the
// switch's arithmetic, applied in the network, so no host compute time
// is charged). Both may be nil for timing-only (phantom) runs, in which
// case the returned result is nil. The contribution buffer must not be
// touched while the call is blocked: the fold reads it in network
// context.
func (g *SharpGroup) Allreduce(p *sim.Proc, bytes int, contrib any, reduce func(acc, x any) any) (any, error) {
	if bytes > g.sharp.prof.MaxPayload {
		return nil, ErrSharpPayload
	}
	call := &sharpCall{lp: p.LP(), wake: p.Wake()}
	p.Kernel().AfterNet(0, func() { g.arrive(call, bytes, contrib, reduce) })
	p.ArmWake("sharp allreduce")
	p.Park()
	return call.result, call.err
}

// arrive folds one caller's contribution into the forming operation and,
// on the last arrival, launches it (or refuses it while the offload is
// failed). Runs in network-LP context.
func (g *SharpGroup) arrive(call *sharpCall, bytes int, contrib any, reduce func(acc, x any) any) {
	s := g.sharp
	if g.cur == nil {
		g.cur = &sharpOp{group: g, bytes: bytes, parts: make([]any, g.sub.Count)}
	}
	op := g.cur
	if bytes != op.bytes {
		// Leaves disagree on the payload: refuse this caller (the
		// operation keeps waiting for a conforming arrival — a
		// programming error surfaced exactly as a real tree would, with
		// a NACK after the control round trip).
		call.err = fmt.Errorf("fabric: SHArP leaves disagree on payload (%d vs %d bytes)", bytes, op.bytes)
		s.notify(call)
		return
	}
	if reduce != nil && contrib != nil {
		op.reduce = reduce
		st := 0
		if call.lp >= 0 && call.lp < len(g.sub.Of) {
			st = int(g.sub.Of[call.lp])
		}
		if op.parts[st] == nil {
			op.parts[st] = contrib
		} else {
			op.parts[st] = reduce(op.parts[st], contrib)
		}
	}
	op.calls = append(op.calls, call)
	op.arrived++
	if op.arrived < g.members {
		return
	}
	// Last arrival: detach the operation so the group's next one can
	// start collecting while this one runs.
	g.cur = nil
	if s.failed {
		// The offload outage is observed here, and only here, so every
		// caller of this operation sees the same verdict — per-caller
		// checks would diverge, since members arrive at different
		// virtual times.
		op.parts, op.reduce = nil, nil
		for _, c := range op.calls {
			c.err = ErrSharpOffline
			s.notify(c)
		}
		return
	}
	if s.slots > 0 {
		s.slots--
		s.begin(op)
		return
	}
	s.waitq = append(s.waitq, op)
}

// begin starts a launched operation: the upper tree combines the
// per-subtree partials in subtree-id order, every caller learns the
// result at +OpLatency, and the slot frees at the same instant (releasing
// the next queued operation, if any). Runs in network-LP context.
func (s *Sharp) begin(op *sharpOp) {
	op.group.Stats.Ops++
	d := s.OpLatency(op.group.nodes, op.bytes)
	var result any
	if op.reduce != nil {
		for _, part := range op.parts {
			if part == nil {
				continue
			}
			if result == nil {
				result = part
			} else {
				result = op.reduce(result, part)
			}
		}
	}
	op.parts, op.reduce = nil, nil
	for _, c := range op.calls {
		c.result = result
		c.lpWake(s, d)
	}
	s.k.After(d, func() {
		s.slots++
		if len(s.waitq) > 0 {
			next := s.waitq[0]
			copy(s.waitq, s.waitq[1:])
			s.waitq = s.waitq[:len(s.waitq)-1]
			s.slots--
			s.begin(next)
		}
	})
}

// notify delivers a refusal to one caller after the NACK round trip.
func (s *Sharp) notify(c *sharpCall) {
	c.lpWake(s, s.nackLatency())
}

// lpWake schedules the caller's wakeup on its own node, d from now. Every
// wake delay is at least the kernel lookahead (see WakeLatency), so the
// cross-LP event is always legal.
func (c *sharpCall) lpWake(s *Sharp, d sim.Duration) {
	s.k.AfterOn(c.lp, d, c.wake)
}
