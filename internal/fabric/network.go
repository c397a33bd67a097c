package fabric

import (
	"fmt"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// nic is one node's network adapter: an uplink, a downlink, and an
// injection serializer enforcing the NIC message rate. The injector state
// is owned by the node's LP; the links themselves are flow-net state and
// immutable after construction.
//
//dpml:owner node
type nic struct {
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

// Network models the inter-node interconnect of one job: per-node NICs
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
	nics  []nic // [node]

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
// receiving each have their own per-process processing rate. The
// attachment belongs to its node's LP and is immutable after
// construction, except for its pipes, which the network LP builds at
// the endpoint's first transfer each way (see pipes).
//
//dpml:owner node
type Endpoint struct {
	net  *Network
	k    *sim.Kernel // the owning node's kernel
	node int
	nic  *nic
	tx   *Link //dpml:owner net
	rx   *Link //dpml:owner net
}

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
	n.nics = make([]nic, nodes)
	for i := range n.nics {
		n.nics[i].up = NewLink(fmt.Sprintf("n%d.up", i), c.Net.LinkBandwidth)
		n.nics[i].down = NewLink(fmt.Sprintf("n%d.down", i), c.Net.LinkBandwidth)
	}
	n.sub = topology.LeafSubtrees(nodes, c.Net.LeafRadix)
	if over := c.Net.Oversubscription; over > 1 {
		n.coreUp = make([]*Link, n.sub.Count)
		n.coreDn = make([]*Link, n.sub.Count)
		for s := 0; s < n.sub.Count; s++ {
			agg := c.Net.LinkBandwidth * float64(n.sub.Size(s)) / over
			n.coreUp[s] = NewLink(fmt.Sprintf("sub%d.core.up", s), agg)
			n.coreDn[s] = NewLink(fmt.Sprintf("sub%d.core.down", s), agg)
		}
	}
	return n
}

// Endpoint creates a fresh process attachment on the given node, with its
// own per-process pipe at the profile's PerFlowCap rate.
func (n *Network) Endpoint(node int) *Endpoint {
	return &Endpoint{net: n, k: n.coord.KernelFor(node), node: node, nic: n.nicAt(node)}
}

// pipes returns src's send pipe and dst's receive pipe, building each
// at its first use. Most processes of a multi-leader job never send or
// receive off their node, and the two pipes are most of an endpoint's
// memory.
func (n *Network) pipes(src, dst *Endpoint) (tx, rx *Link) {
	if src.tx == nil {
		src.tx = NewLink(fmt.Sprintf("n%d.tx", src.node), n.prof.PerFlowCap)
	}
	if dst.rx == nil {
		dst.rx = NewLink(fmt.Sprintf("n%d.rx", dst.node), n.prof.PerFlowCap)
	}
	return src.tx, dst.rx
}

// InjectDelay reserves the next injection slot on the endpoint's NIC and
// returns how long the caller must wait before the message enters the
// wire. It advances the injector clock, so callers must sleep the
// returned duration (the MPI layer does). The NIC's injector state is
// node-local: it must only be touched from its own node's context.
func (ep *Endpoint) InjectDelay() sim.Duration {
	h := ep.nic
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

// NodeLinks exposes the uplink and downlink of one node's NIC, so the
// fault layer can degrade their capacity through FlowNet.SetLinkCapacity.
func (n *Network) NodeLinks(node int) (up, down *Link) {
	h := n.nicAt(node)
	return h.up, h.down
}

// SetInjectScale throttles one node's NIC message rate: subsequent
// injections reserve scale times the profile's nominal gap. scale 1 (or 0)
// restores the nominal rate; already-reserved slots are not revisited.
// This is the fault layer's NIC-throttling hook.
func (n *Network) SetInjectScale(node int, scale float64) {
	if scale < 0 {
		panic(fmt.Sprintf("fabric: SetInjectScale(%d, %g)", node, scale))
	}
	n.nicAt(node).gapScale = scale
}

// StartTransfer launches the wire part of one message between two
// endpoints on different nodes, carried by the caller's record t. The
// flow traverses the sender's pipe, the sender's uplink, the (optional)
// core stage, the receiver's downlink, and the receiver's pipe; onArrive
// fires in the destination node's context when the last byte has crossed
// the wire latency. onSent, when non-nil, fires in the source node's
// context at the same instant (rendezvous sends complete the sender's
// request then); the two callbacks run on different nodes, so they must
// not share unsynchronized state. The caller (in the source node's
// context) is responsible for charging CPU overheads and injection delay
// first, and must not reuse t before onArrive has run.
func (n *Network) StartTransfer(t *Transfer, src, dst *Endpoint, bytes int64, onArrive, onSent func()) {
	if src.node == dst.node {
		panic("fabric: StartTransfer within a node; use MemChannel")
	}
	if t.launch == nil {
		t.launch = func() { n.launch(t) }
	}
	t.src, t.dst, t.bytes, t.onArrive, t.onSent = src, dst, bytes, onArrive, onSent
	// The flow's links and the message counters are network-LP state;
	// hop into it with a zero-delay injection (the network phase of each
	// time window runs after every node's, so the flow still starts at
	// the current instant).
	src.k.AfterNet(0, t.launch)
}

// Transfer carries one message through the fabric: filled in the source
// node's context, read by the network LP to launch its flow and, when
// the flow ends, to schedule the arrival. Its zero value is ready to
// use, and its callbacks are built at its first transfer, so a caller
// that keeps one record per message in flight (mpi keeps one in each
// envelope) starts transfers without allocating. The source node never
// touches it after the launch is scheduled: onSent goes to the source
// node as a plain callback, so under sharding the two nodes share no
// record state.
type Transfer struct {
	src, dst         *Endpoint
	bytes            int64
	onArrive, onSent func()

	launch func() // network LP: start the flow
	done   func() // network LP: the flow has finished (built by the first launch)
}

// launch starts t's flow. Runs in network-LP context. A record's done
// callback is built here, on its first launch, so it is network code
// wherever the ownership model looks at it.
func (n *Network) launch(t *Transfer) {
	if t.done == nil {
		t.done = func() {
			wire := n.prof.WireLatency
			n.k.AfterOn(t.dst.node, wire, t.onArrive)
			if t.onSent != nil {
				n.k.AfterOn(t.src.node, wire, t.onSent)
			}
		}
	}
	src, dst, bytes := t.src, t.dst, t.bytes
	tx, rx := n.pipes(src, dst)
	su, dd := src.nic, dst.nic
	n.Stats.Messages++
	if bytes > 0 {
		n.Stats.Bytes += uint64(bytes)
	}
	if n.coreUp != nil {
		ss, ds := n.sub.Of[src.node], n.sub.Of[dst.node]
		if ss != ds {
			n.flows.Start(bytes, unlimited, t.done,
				tx, su.up, n.coreUp[ss], n.coreDn[ds], dd.down, rx)
			return
		}
	}
	n.flows.Start(bytes, unlimited, t.done, tx, su.up, dd.down, rx)
}

func (n *Network) nicAt(node int) *nic {
	if node < 0 || node >= len(n.nics) {
		panic(fmt.Sprintf("fabric: node %d out of range [0,%d)", node, len(n.nics)))
	}
	return &n.nics[node]
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
	free  []*memCopy // records of finished copy startups, reused by ArmCopy

	// Stats counts copies.
	Stats struct {
		Copies      uint64
		CrossSocket uint64
		Bytes       uint64
	}
}

// NewMemChannel builds the memory channel for one node, with its own
// solo FlowNet on k over the node's memory link.
func NewMemChannel(k *sim.Kernel, c *topology.Cluster, node int) *MemChannel {
	link := NewLink(fmt.Sprintf("n%d.mem", node), c.Mem.AggregateBW)
	flows := NewFlowNet(k)
	flows.solo = link
	return &MemChannel{k: k, flows: flows, prof: c.Mem, link: link}
}

// ArmCopy arms p to park on "shm copy" for the duration of a
// shared-memory copy of bytes (see sim.Proc.Park): the fixed startup
// cost (the paper's a'), then a flow across the node's memory system at
// the intra- or cross-socket streaming rate. The proc is busy for the
// whole copy (memcpy is CPU work). An event at the end of the startup
// starts the flow (or, for an empty copy, wakes p), and the flow wakes
// the proc through its cached wakeup (Proc.Wake), so a copy parks once
// and, from a recycled memCopy record, allocates nothing.
func (m *MemChannel) ArmCopy(p *sim.Proc, crossSocket bool, bytes int64) {
	startup := m.prof.CopyStartup
	rate := m.prof.CopyRate
	if crossSocket {
		startup += m.prof.CrossSocketExtra
		rate = m.prof.CrossSocketRate
		m.Stats.CrossSocket++
	}
	m.Stats.Copies++
	end := p.Wake()
	if bytes > 0 {
		m.Stats.Bytes += uint64(bytes)
		c := m.newCopy()
		c.p, c.bytes, c.rate = p, bytes, rate
		end = c.start
	}
	m.k.After(startup, end)
	p.ArmWake("shm copy")
}

// memCopy holds a copy's flow parameters from ArmCopy until its startup
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

// InjectReport summarizes one node's injection-queue activity: how many
// messages reserved slots and the deepest backlog any of them waited
// behind.
type InjectReport struct {
	Node       int
	Messages   uint64
	MaxBacklog sim.Duration
}

// InjectReports returns per-node injection-queue activity in node order.
func (n *Network) InjectReports() []InjectReport {
	out := make([]InjectReport, len(n.nics))
	for node, h := range n.nics {
		out[node] = InjectReport{Node: node, Messages: h.injections, MaxBacklog: h.maxBacklog}
	}
	return out
}

// Report returns per-link activity for every NIC link (and the
// per-subtree core stage, if modelled), in node then subtree order.
func (n *Network) Report() []LinkReport {
	var out []LinkReport
	for _, h := range n.nics {
		out = append(out, report(h.up), report(h.down))
	}
	for s := range n.coreUp {
		out = append(out, report(n.coreUp[s]), report(n.coreDn[s]))
	}
	return out
}

// Report returns the memory system's activity.
func (m *MemChannel) Report() LinkReport { return report(m.link) }

// FlowStats returns the scheduler work of the channel's FlowNet.
func (m *MemChannel) FlowStats() FlowStats { return m.flows.Stats }
