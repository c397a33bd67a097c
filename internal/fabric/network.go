package fabric

import (
	"fmt"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// hca is one host channel adapter: an uplink, a downlink, and an injection
// serializer enforcing the NIC message rate. The injector state is
// owned by the HCA's node LP; the links themselves are flow-net state
// and immutable after construction.
//
//dpml:owner node
type hca struct {
	up       *Link
	down     *Link
	nextFree sim.Time
	gapScale float64 // injection-gap multiplier; 0 or 1 = nominal rate

	// Injection-queue observability (host-side counters; never read by
	// the simulation): total slots reserved, and the deepest backlog a
	// message ever saw — how far behind its arrival the injector clock
	// was when the slot was reserved.
	injections uint64
	maxBacklog sim.Duration
}

// Network models the inter-node interconnect of one job: per-node HCAs
// with capacity-limited links and message-rate-limited injectors, an
// optional oversubscribed fat-tree core stage, and fluid flows in between.
//
// Every communicating process owns an Endpoint whose private pipe link
// models its per-process protocol-processing rate (PSM onload / per-QP
// driving): however many messages the process has in flight, their total
// rate cannot exceed the pipe. This is what makes concurrency from
// *different* processes profitable (Figure 1) while extra in-flight
// messages from one process are not.
//
//dpml:owner net
type Network struct {
	coord *sim.Coordinator
	k     *sim.Kernel // the network LP's kernel: owns links, flows, Stats
	flows *FlowNet
	prof  topology.NetProfile
	nodes [][]*hca // [node][hca]

	// The oversubscribed core is modelled per leaf subtree: each subtree
	// owns an uplink/downlink pair into the core sized by its node count
	// and the oversubscription ratio. Traffic between nodes under the
	// same leaf never crosses the core (it turns around at the leaf
	// switch), so single-subtree jobs see no core stage at all. Both
	// slices are nil when the core is not a modelled bottleneck
	// (Oversubscription <= 1).
	sub    *topology.SubtreeMap
	coreUp []*Link // [subtree] uplink into the core
	coreDn []*Link // [subtree] downlink out of the core

	// Stats counts message-level activity. Owned by the network LP.
	Stats struct {
		Messages uint64
		Bytes    uint64
	}
}

// Endpoint is one process's attachment to the network. The pipes are
// full-duplex (matching the cost model's assumption): sending and
// receiving each have their own per-process processing rate. All
// fields are immutable after construction; the attachment belongs to
// its node's LP.
//
//dpml:owner node
type Endpoint struct {
	net  *Network
	k    *sim.Kernel // the owning node's kernel
	node int
	hca  int
	tx   *Link
	rx   *Link
}

// Node returns the endpoint's node index.
func (ep *Endpoint) Node() int { return ep.node }

// unlimited is the per-flow rate cap used now that rate limiting happens
// through per-process pipe links.
const unlimited = 1e18

// NewNetwork builds the interconnect for nodes compute nodes of the given
// cluster. Link and flow state belongs to the coordinator's network LP;
// flows must be a FlowNet bound to the network LP's kernel.
func NewNetwork(coord *sim.Coordinator, flows *FlowNet, c *topology.Cluster, nodes int) *Network {
	if nodes <= 0 || nodes > c.Nodes {
		panic(fmt.Sprintf("fabric: NewNetwork with %d nodes on %s", nodes, c.Name))
	}
	n := &Network{coord: coord, k: coord.NetKernel(), flows: flows, prof: c.Net}
	n.nodes = make([][]*hca, nodes)
	for i := range n.nodes {
		hcas := make([]*hca, c.HCAs)
		for h := range hcas {
			hcas[h] = &hca{
				up:   NewLink(fmt.Sprintf("n%d.h%d.up", i, h), c.Net.LinkBandwidth),
				down: NewLink(fmt.Sprintf("n%d.h%d.down", i, h), c.Net.LinkBandwidth),
			}
		}
		n.nodes[i] = hcas
	}
	n.sub = topology.LeafSubtrees(nodes, c.Net.LeafRadix)
	if over := c.Net.Oversubscription; over > 1 {
		n.coreUp = make([]*Link, n.sub.Count)
		n.coreDn = make([]*Link, n.sub.Count)
		for s := 0; s < n.sub.Count; s++ {
			agg := c.Net.LinkBandwidth * float64(n.sub.Size(s)*c.HCAs) / over
			n.coreUp[s] = NewLink(fmt.Sprintf("sub%d.core.up", s), agg)
			n.coreDn[s] = NewLink(fmt.Sprintf("sub%d.core.down", s), agg)
		}
	}
	return n
}

// Endpoint creates a fresh process attachment on the given node and HCA,
// with its own per-process pipe at the profile's PerFlowCap rate.
func (n *Network) Endpoint(node, hcaIdx int) *Endpoint {
	n.hcaAt(node, hcaIdx) // validate
	return &Endpoint{
		net:  n,
		k:    n.coord.KernelFor(node),
		node: node,
		hca:  hcaIdx,
		tx:   NewLink(fmt.Sprintf("n%d.h%d.tx", node, hcaIdx), n.prof.PerFlowCap),
		rx:   NewLink(fmt.Sprintf("n%d.h%d.rx", node, hcaIdx), n.prof.PerFlowCap),
	}
}

// Kernel returns the kernel owning the endpoint's node.
func (ep *Endpoint) Kernel() *sim.Kernel { return ep.k }

// InjectDelay reserves the next injection slot on the endpoint's HCA and
// returns how long the caller must wait before the message enters the
// wire. It advances the injector clock, so callers must sleep the
// returned duration (the MPI layer does). The HCA's injector state is
// node-local: it must only be touched from its own node's context.
func (ep *Endpoint) InjectDelay() sim.Duration {
	h := ep.net.hcaAt(ep.node, ep.hca)
	now := ep.k.Now()
	start := now
	if h.nextFree > start {
		start = h.nextFree
	}
	gap := ep.net.prof.MsgGap
	if h.gapScale > 0 && h.gapScale != 1 { //dpml:allow floateq -- 1.0 is an exact sentinel, never computed
		gap = sim.Duration(float64(gap) * h.gapScale)
	}
	h.nextFree = start.Add(gap)
	wait := start.Sub(now)
	h.injections++
	if wait > h.maxBacklog {
		h.maxBacklog = wait
	}
	return wait
}

// HCALinks exposes the uplink and downlink of one node's HCA, so the
// fault layer can degrade their capacity through FlowNet.SetLinkCapacity.
func (n *Network) HCALinks(node, hcaIdx int) (up, down *Link) {
	h := n.hcaAt(node, hcaIdx)
	return h.up, h.down
}

// SetInjectScale throttles one HCA's message rate: subsequent injections
// reserve scale times the profile's nominal gap. scale 1 (or 0) restores
// the nominal rate; already-reserved slots are not revisited. This is the
// fault layer's NIC-throttling hook.
func (n *Network) SetInjectScale(node, hcaIdx int, scale float64) {
	if scale < 0 {
		panic(fmt.Sprintf("fabric: SetInjectScale(%d, %d, %g)", node, hcaIdx, scale))
	}
	n.hcaAt(node, hcaIdx).gapScale = scale
}

// StartTransfer launches the wire part of one message between two
// endpoints on different nodes. The flow traverses the sender's pipe, the
// sender's uplink, the (optional) core stage, the receiver's downlink,
// and the receiver's pipe; onArrive fires in the destination node's
// context when the last byte has crossed the wire latency. The caller
// (in the source node's context) is responsible for charging CPU
// overheads and injection delay first.
func (n *Network) StartTransfer(src, dst *Endpoint, bytes int64, onArrive func()) {
	n.StartTransferNotify(src, dst, bytes, onArrive, nil)
}

// StartTransferNotify is StartTransfer with an additional sender-side
// completion: onSent, when non-nil, fires in the source node's context at
// the same instant onArrive fires at the destination (rendezvous sends
// complete the sender's request then). The two callbacks run on
// different nodes, so they must not share unsynchronized state.
func (n *Network) StartTransferNotify(src, dst *Endpoint, bytes int64, onArrive, onSent func()) {
	if src.node == dst.node {
		panic("fabric: StartTransfer within a node; use MemChannel")
	}
	// The flow's links and the message counters are network-LP state;
	// hop into it with a zero-delay injection (the network phase of each
	// time window runs after every node's, so the flow still starts at
	// the current instant).
	src.k.AfterNet(0, func() { n.launch(src, dst, bytes, onArrive, onSent) })
}

// launch starts the flow. Runs in network-LP context.
func (n *Network) launch(src, dst *Endpoint, bytes int64, onArrive, onSent func()) {
	su := n.hcaAt(src.node, src.hca)
	dd := n.hcaAt(dst.node, dst.hca)
	n.Stats.Messages++
	if bytes > 0 {
		n.Stats.Bytes += uint64(bytes)
	}
	wire := n.prof.WireLatency
	done := func() {
		n.k.AfterOn(dst.node, wire, onArrive)
		if onSent != nil {
			n.k.AfterOn(src.node, wire, onSent)
		}
	}
	if n.coreUp != nil {
		ss, ds := n.sub.Of[src.node], n.sub.Of[dst.node]
		if ss != ds {
			n.flows.Start(bytes, unlimited, done,
				src.tx, su.up, n.coreUp[ss], n.coreDn[ds], dd.down, dst.rx)
			return
		}
	}
	n.flows.Start(bytes, unlimited, done, src.tx, su.up, dd.down, dst.rx)
}

func (n *Network) hcaAt(node, h int) *hca {
	if node < 0 || node >= len(n.nodes) {
		panic(fmt.Sprintf("fabric: node %d out of range [0,%d)", node, len(n.nodes)))
	}
	hcas := n.nodes[node]
	if h < 0 || h >= len(hcas) {
		panic(fmt.Sprintf("fabric: hca %d out of range [0,%d)", h, len(hcas)))
	}
	return hcas[h]
}

// MemChannel models one node's shared-memory communication: every copy is
// a flow over the node's aggregate memory bandwidth with a per-flow
// streaming cap that depends on whether the copy crosses sockets.
//
//dpml:owner node
type MemChannel struct {
	k     *sim.Kernel
	flows *FlowNet
	prof  topology.MemProfile
	link  *Link
	free  []*memCopy // records of finished copy startups, reused by Copy

	// Stats counts copies.
	Stats struct {
		Copies      uint64
		CrossSocket uint64
		Bytes       uint64
	}
}

// NewMemChannel builds the memory channel for one node.
func NewMemChannel(k *sim.Kernel, flows *FlowNet, c *topology.Cluster, node int) *MemChannel {
	return &MemChannel{
		k:     k,
		flows: flows,
		prof:  c.Mem,
		link:  NewLink(fmt.Sprintf("n%d.mem", node), c.Mem.AggregateBW),
	}
}

// Copy blocks the calling proc for the duration of a shared-memory copy of
// bytes: the fixed startup cost (the paper's a'), then a flow across the
// node's memory system at the intra- or cross-socket streaming rate. The
// proc is busy for the whole copy (memcpy is CPU work). The startup's
// wakeup event starts the flow (Proc.SleepThen), and the flow wakes the
// proc through its cached wakeup, so a copy parks once and, from a
// recycled memCopy record, allocates nothing.
func (m *MemChannel) Copy(p *sim.Proc, crossSocket bool, bytes int64) {
	startup := m.prof.CopyStartup
	rate := m.prof.CopyRate
	if crossSocket {
		startup += m.prof.CrossSocketExtra
		rate = m.prof.CrossSocketRate
		m.Stats.CrossSocket++
	}
	m.Stats.Copies++
	if bytes > 0 {
		m.Stats.Bytes += uint64(bytes)
	}
	if bytes <= 0 {
		p.Sleep(startup)
		return
	}
	c := m.newCopy()
	c.p, c.bytes, c.rate = p, bytes, rate
	p.SleepThen(startup, c.start, "shm copy")
}

// memCopy holds a copy's flow parameters from Copy until its startup
// ends and start launches the flow.
type memCopy struct {
	p     *sim.Proc
	bytes int64
	rate  float64
	start func() // built once per record
}

// newCopy takes a record from the free list, or builds one. Its start
// launches the flow and returns the record to the list.
func (m *MemChannel) newCopy() *memCopy {
	if i := len(m.free) - 1; i >= 0 {
		c := m.free[i]
		m.free[i] = nil
		m.free = m.free[:i]
		return c
	}
	c := &memCopy{}
	c.start = func() {
		m.flows.Start(c.bytes, c.rate, c.p.Wake(), m.link)
		c.p = nil
		m.free = append(m.free, c)
	}
	return c
}

// LinkReport summarizes one link's lifetime activity for observability
// tools.
type LinkReport struct {
	Name     string
	Capacity float64 // bytes/sec
	Bytes    int64   // total carried
	Busy     sim.Duration
}

func report(l *Link) LinkReport {
	return LinkReport{Name: l.Name(), Capacity: l.Capacity(), Bytes: l.BytesMoved(), Busy: l.BusyTime()}
}

// InjectReport summarizes one HCA's injection-queue activity: how many
// messages reserved slots and the deepest backlog any of them waited
// behind.
type InjectReport struct {
	Node       int
	HCA        int
	Messages   uint64
	MaxBacklog sim.Duration
}

// InjectReports returns per-HCA injection-queue activity in node/HCA
// order.
func (n *Network) InjectReports() []InjectReport {
	var out []InjectReport
	for node, hcas := range n.nodes {
		for idx, h := range hcas {
			out = append(out, InjectReport{
				Node: node, HCA: idx,
				Messages: h.injections, MaxBacklog: h.maxBacklog,
			})
		}
	}
	return out
}

// Report returns per-link activity for every NIC link (and the
// per-subtree core stage, if modelled), in node/HCA then subtree order.
func (n *Network) Report() []LinkReport {
	var out []LinkReport
	for _, hcas := range n.nodes {
		for _, h := range hcas {
			out = append(out, report(h.up), report(h.down))
		}
	}
	for s := range n.coreUp {
		out = append(out, report(n.coreUp[s]), report(n.coreDn[s]))
	}
	return out
}

// Report returns the memory system's activity.
func (m *MemChannel) Report() LinkReport { return report(m.link) }
