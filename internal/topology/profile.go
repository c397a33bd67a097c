package topology

import "dpml/internal/sim"

// NetProfile captures the inter-node interconnect characteristics the
// flow-level fabric model needs. The parameters correspond to the fixed
// costs and rate limits discussed in Section 3 of the paper: per-message
// CPU overheads dominate small transfers (Zone A), per-flow and per-link
// rate caps dominate large ones (Zone C).
type NetProfile struct {
	// LinkBandwidth is the capacity of one NIC direction in bytes/sec.
	// Concurrent flows through the same NIC share it max-min fairly.
	LinkBandwidth float64
	// PerFlowCap is the maximum rate a single flow can sustain in
	// bytes/sec, modelling per-QP/PSM-stream processing limits. When
	// PerFlowCap ≈ LinkBandwidth one pair saturates the link (Omni-Path
	// large messages, Fig 1c); when PerFlowCap ≪ LinkBandwidth added
	// concurrency keeps helping (InfiniBand, Fig 1b).
	PerFlowCap float64
	// SenderOverhead is the CPU time the sending process spends per
	// message (building descriptors, PSM onload work, ...).
	SenderOverhead sim.Duration
	// ReceiverOverhead is the CPU time the receiving process spends per
	// message before the payload is usable.
	ReceiverOverhead sim.Duration
	// WireLatency is the one-way propagation plus switching latency.
	// It lower-bounds every cross-node interaction, so the sharded
	// kernel's lookahead never exceeds it.
	//
	//dpml:minlookahead
	WireLatency sim.Duration
	// MsgGap is the minimum spacing between message injections at one
	// NIC (the inverse of the NIC message rate).
	MsgGap sim.Duration
	// EagerThreshold is the message size in bytes up to which the eager
	// protocol is used; larger messages use rendezvous and pay an extra
	// handshake round-trip before the payload moves.
	EagerThreshold int
	// Oversubscription is the fat-tree core oversubscription factor
	// (≥ 1); the aggregate core capacity is the sum of node uplinks
	// divided by this factor. 0 means "no modelled core bottleneck".
	Oversubscription float64
	// LeafRadix is the number of node-facing ports on one leaf (edge)
	// switch of the fat tree. Nodes are cabled to leaf switches in
	// contiguous blocks of this size, so it determines the canonical
	// subtree partition used by the fabric layer: flows between nodes
	// under the same leaf never cross the core, and the oversubscribed
	// core capacity (when Oversubscription > 1) is split into one
	// uplink/downlink pair per subtree. 0 means "topology unknown":
	// the whole job is treated as a single subtree.
	LeafRadix int
}

// MemProfile captures the intra-node shared-memory channel. The paper's
// cost model calls these a' (CopyStartup) and b' (1/CopyRate).
type MemProfile struct {
	// CopyRate is the streaming rate of one process copying through
	// shared memory within a socket, bytes/sec.
	CopyRate float64
	// CrossSocketRate is the per-flow rate when source and destination
	// ranks sit on different sockets (QPI/UPI hop).
	CrossSocketRate float64
	// AggregateBW is the node memory bandwidth shared by all concurrent
	// copies, bytes/sec. Fig 1a's near-linear pair scaling requires
	// AggregateBW ≫ CopyRate.
	AggregateBW float64
	// CopyStartup is the fixed cost per shared-memory copy (a').
	CopyStartup sim.Duration
	// CrossSocketExtra is additional fixed latency for cross-socket
	// copies; the SHArP socket-leader design exists to avoid it.
	CrossSocketExtra sim.Duration
	// FlagSync is the leader-side synchronization cost per contributor
	// when gathering through shared memory (polling the ready flag and
	// pulling the cache line). Cross-socket contributors cost
	// FlagSyncCross instead; "both the gather and broadcast phases
	// suffer from this bottleneck" is Section 4.3's motivation for
	// socket-level leaders.
	FlagSync sim.Duration
	// FlagSyncCross is FlagSync for a contributor on another socket.
	FlagSyncCross sim.Duration
}

// CPUProfile captures per-core compute capability for reduction kernels.
type CPUProfile struct {
	// ReduceRate is the rate at which one core streams a two-operand
	// reduction, in bytes of input reduced per second (the paper's 1/c).
	ReduceRate float64
}

// SharpProfile models the SHArP in-network aggregation tree available on
// Mellanox fabrics (cluster A only).
type SharpProfile struct {
	// Available reports whether the fabric supports SHArP at all.
	Available bool
	// Radix is the fan-in of each aggregation switch; the tree depth for
	// h participating nodes is ceil(log_Radix(h)), minimum 1.
	Radix int
	// OpOverhead is the fixed per-operation cost (HCA doorbell, driver,
	// completion handling) independent of tree depth; dominant for small
	// trees, which is why SHArP latency is nearly flat in node count.
	OpOverhead sim.Duration
	// HopLatency is the per-level latency of the aggregation tree, paid
	// once going up and once coming down.
	HopLatency sim.Duration
	// SwitchReduceRate is the per-switch streaming reduction rate in
	// bytes/sec; it is deliberately modest, which is why SHArP loses to
	// host-based algorithms beyond a few KB (Fig 8).
	SwitchReduceRate float64
	// MaxPayload is the largest message (bytes) an operation may carry;
	// larger reductions must fall back to host algorithms.
	MaxPayload int
	// MaxOutstanding bounds concurrent SHArP operations per tree; the
	// paper notes SHArP "can support only a small number of concurrent
	// operations", which rules out using every DPML leader.
	MaxOutstanding int
	// MaxGroups bounds the number of SHArP communicators (groups) that
	// can exist simultaneously.
	MaxGroups int
}

// WakeLatency returns the smallest delay after which a SHArP tree ever
// notifies a caller's node: the operation overhead plus one round trip
// to the nearest switch (the NACK path; completed operations take at
// least fabric.Sharp.OpLatency, which is larger). The sharded kernel's
// lookahead must not exceed it.
//
//dpml:minlookahead
func (p SharpProfile) WakeLatency() sim.Duration {
	return p.OpOverhead + 2*p.HopLatency
}
