// Package fabric implements the communication substrate of the simulated
// clusters: a flow-level model of the inter-node interconnect (links with
// max-min fair sharing, per-flow rate caps, NIC injection gaps, wire
// latency), an intra-node shared-memory channel, and a SHArP in-network
// aggregation tree.
//
// The model is fluid: a transfer is a flow with a remaining byte count
// that drains at a rate decided by water-filling across the links it
// traverses. Whenever the flow population changes, rates are recomputed
// and completion events rescheduled. This reproduces, from first
// principles, the three throughput regimes the paper measures in Figure 1:
// overhead-bound (aggregate rate grows with concurrency), transition, and
// bandwidth-bound (aggregate rate flat).
package fabric

import (
	"fmt"
	"math"

	"dpml/internal/sim"
)

// Link is a capacity-constrained resource (one direction of a NIC port, a
// fat-tree core stage, or a node's memory system). A link belongs to
// whichever kernel's FlowNet drives it — the network LP for wire
// links, a node LP for memory links — so class ownership is per
// instance, not per type.
//
//dpml:owner shared
type Link struct {
	name      string
	capacity  float64 // bytes/sec
	flows     []*flow // live flows plus tombstones awaiting compaction
	live      int     // live entries in flows
	moved     float64 // total bytes carried (for utilization reports)
	busy      sim.Duration
	busyUntil sim.Time // high-water mark of charged busy time

	// bottleneck records whether the link was saturated by the last
	// water-fill; it gates the incremental completion fast path.
	bottleneck bool

	// water-filling scratch state, valid only within one recompute
	mark     uint64
	share    float64 // this iteration's fair share (residual / unfrozen)
	unfrozen int
	comp     int32 // component id during discovery (provisional, then dense)
	binds    bool  // marked binding in the current fill iteration
}

// NewLink returns a link with the given capacity in bytes/sec.
func NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("fabric: link %q capacity %g", name, capacity))
	}
	return &Link{name: name, capacity: capacity}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's capacity in bytes/sec.
func (l *Link) Capacity() float64 { return l.capacity }

// BytesMoved returns the total bytes the link has carried.
func (l *Link) BytesMoved() int64 { return int64(l.moved) }

// BusyTime returns the total virtual time the link spent with at least
// one active flow (accumulated at recompute granularity).
func (l *Link) BusyTime() sim.Duration { return l.busy }

// chargeBusy extends the link's busy accounting through [from, to),
// clipping against the high-water mark so overlapping charges (multiple
// flows settling over the same span) count once.
func (l *Link) chargeBusy(from, to sim.Time) {
	if to <= l.busyUntil {
		return
	}
	if from < l.busyUntil {
		from = l.busyUntil
	}
	l.busy += to.Sub(from)
	l.busyUntil = to
}

func (l *Link) addFlow(f *flow) {
	l.flows = append(l.flows, f)
	l.live++
}

// compact drops tombstoned (completed) flows, preserving the insertion
// order of the survivors. Completion marks a flow done in O(1) instead of
// linearly scanning every link it crossed; the next water-fill — which
// walks these lists anyway — compacts them here, so removal is O(1)
// amortized while iteration order (and therefore every downstream
// floating-point sum and event sequence number) stays bit-identical to
// eager ordered removal. Each dropped tombstone is released to n, the
// FlowNet driving the link.
func (l *Link) compact(n *FlowNet) {
	if len(l.flows) == l.live {
		return
	}
	flows := l.flows[:0]
	for _, f := range l.flows {
		if !f.done {
			flows = append(flows, f)
		} else {
			n.release(f)
		}
	}
	for i := len(flows); i < len(l.flows); i++ {
		l.flows[i] = nil
	}
	l.flows = flows
}

// maxPathLinks is the longest path the fabric builds: a message between
// leaf subtrees crosses tx, up, coreUp, coreDn, down and rx. Every flow
// carries that much link storage inline.
const maxPathLinks = 6

// flow is one transfer in flight; like Link, it is owned by whichever
// kernel's FlowNet it runs under. Flow objects are recycled through the
// FlowNet's free list (see FlowNet.release).
//
//dpml:owner shared
type flow struct {
	links      []*Link // path[:len] unless a longer path outgrew it
	path       [maxPathLinks]*Link
	cap        float64 // per-flow rate ceiling, bytes/sec
	remaining  float64 // bytes left to move
	rate       float64
	prevRate   float64 // rate before the current recompute
	lastSettle sim.Time
	onDone     func()
	fire       func() // completion callback, built once per flow object
	event      *sim.Event
	holders    int   // lists still holding the flow: n.active plus one per link entry
	frozen     bool  // scratch state for water-filling
	done       bool  // completed; awaiting compaction
	comp       int32 // component id during discovery (provisional, then dense)
}

// component is one connected component of the flow-link bipartite graph:
// a set of flows and the links they (transitively) share. Max-min fair
// rates in one component are independent of every other component — the
// only exact decomposition of the fill — so the fill runs component by
// component. Flow and link lists preserve the canonical global orders
// (n.active order; first-touch link order), so the fill's floating-point
// arithmetic does not depend on how the flows split into components.
type component struct {
	flows []*flow
	links []*Link
}

// FlowNet owns the set of active flows and keeps their rates max-min fair.
// All methods must be called from simulation context (a running proc or an
// event callback) of the kernel it was built with — the network LP for
// the wire FlowNet, a node LP for each memory FlowNet.
//
//dpml:owner shared
type FlowNet struct {
	k      *sim.Kernel
	active []*flow // live flows plus tombstones awaiting compaction
	live   int     // live entries in active
	dirty  bool
	refill func()      // the batched recompute event's callback, built once
	free   []*flow     // released flow objects, reused by Start
	gen    uint64      // water-filling generation stamp
	uf     []int32     // scratch: union-find over provisional component ids
	comps  []component // scratch: per-component flow/link buckets, reused
	// events holds the flows' completion events, so a water-fill's
	// re-keys touch this set's heap and not the kernel's.
	events *sim.EventSet
	// Stats counts scheduler work for tests and reports.
	Stats struct {
		Started   uint64
		Completed uint64
		Recompute uint64
		// FastPath counts completions that skipped the settle-and-refill
		// recompute because no link the flow crossed was a bottleneck.
		FastPath uint64
	}
}

// NewFlowNet returns an empty flow scheduler bound to the kernel.
func NewFlowNet(k *sim.Kernel) *FlowNet {
	n := &FlowNet{k: k, events: k.NewEventSet()}
	n.refill = func() {
		n.dirty = false
		n.recompute()
	}
	return n
}

// Start launches a flow of bytes over the given links with a per-flow rate
// ceiling, invoking onDone in kernel context when the last byte drains.
// Zero-byte flows complete immediately (still asynchronously, at the
// current instant). Rate recomputation is batched: flows started at the
// same instant trigger one water-filling pass. The links are copied into
// the flow, so the caller's slice is not retained.
func (n *FlowNet) Start(bytes int64, rateCap float64, onDone func(), links ...*Link) {
	if rateCap <= 0 {
		panic("fabric: flow rate cap must be positive")
	}
	if len(links) == 0 {
		panic("fabric: flow needs at least one link")
	}
	if bytes <= 0 {
		n.k.After(0, onDone)
		return
	}
	f := n.alloc()
	f.links = append(f.links[:0], links...)
	f.cap = rateCap
	f.remaining = float64(bytes)
	f.rate, f.prevRate = 0, 0
	f.lastSettle = n.k.Now()
	f.onDone = onDone
	f.holders = 1 + len(links)
	f.done = false
	for _, l := range links {
		l.addFlow(f)
	}
	n.active = append(n.active, f)
	n.live++
	n.Stats.Started++
	n.markDirty()
}

// alloc takes a flow object from the free list, or builds one with its
// completion callback.
func (n *FlowNet) alloc() *flow {
	if i := len(n.free) - 1; i >= 0 {
		f := n.free[i]
		n.free[i] = nil
		n.free = n.free[:i]
		return f
	}
	f := &flow{}
	f.links = f.path[:0]
	f.fire = func() { n.complete(f) }
	return f
}

// release drops one holder's reference to a completed flow. A tombstone
// stays in n.active and in each of its links' lists until compaction
// removes it, and a link no later fill touches keeps its tombstones
// indefinitely, so the flow returns to the free list only when the last
// of those lists lets go.
func (n *FlowNet) release(f *flow) {
	f.holders--
	if f.holders == 0 {
		n.free = append(n.free, f)
	}
}

// SetLinkCapacity changes l's capacity in place and re-water-fills every
// in-flight flow (batched with any other changes at this instant, like a
// Start). This is the fault layer's link-degradation hook: a congested or
// flapping link slows flows already crossing it mid-transfer, exactly as
// a real capacity change would. Must be called from simulation context.
// The completion fast path stays sound: the net is dirty until the refill
// event fires, so no completion trusts the stale bottleneck flags.
func (n *FlowNet) SetLinkCapacity(l *Link, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("fabric: SetLinkCapacity(%q, %g)", l.name, capacity))
	}
	if capacity == l.capacity { //dpml:allow floateq -- no-op guard: any real change re-waterfills
		return
	}
	l.capacity = capacity
	n.markDirty()
}

func (n *FlowNet) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.k.After(0, n.refill)
}

func (n *FlowNet) complete(f *flow) {
	// Credit the final, not-yet-settled leg of the transfer.
	now := n.k.Now()
	fast := !n.dirty
	for _, l := range f.links {
		l.moved += f.remaining
		l.chargeBusy(f.lastSettle, now)
		l.live--
		if l.bottleneck {
			fast = false
		}
	}
	f.remaining = 0
	f.event = nil
	// O(1) removal: tombstone the flow; the next water-fill compacts it
	// out of n.active and each link's list in order-preserving passes.
	f.done = true
	n.live--
	n.Stats.Completed++
	done := f.onDone
	f.onDone = nil
	if fast {
		// Incremental fast path: every link this flow crossed had spare
		// capacity after the last water-fill, so no surviving flow was
		// throttled by them — the departure cannot raise anyone's rate,
		// and the full settle-and-refill pass is skipped. (Link capacity
		// in use only decreases between fills, so the flags can only be
		// conservatively stale: a flagged bottleneck forces a recompute
		// it might not strictly need, never the reverse.)
		n.Stats.FastPath++
	} else {
		n.markDirty()
	}
	if done != nil {
		done()
	}
}

// recompute settles progress, water-fills rates, and reschedules
// completion events for every active flow. The settle and fill run per
// connected component of the flow-link graph: components share no state
// and use canonical arithmetic (see fillComponent), so the result is the
// global max-min fill bit for bit.
func (n *FlowNet) recompute() {
	n.Stats.Recompute++
	n.compact()
	if n.live == 0 {
		return
	}
	now := n.k.Now()
	count := n.findComponents()
	for i := range n.comps[:count] {
		n.fillComponent(&n.comps[i], now)
	}
	n.reschedule(now)
}

// compact drops tombstoned flows from the active list, preserving the
// insertion order of survivors (see Link.compact for why order matters).
func (n *FlowNet) compact() {
	if len(n.active) == n.live {
		return
	}
	active := n.active[:0]
	for _, f := range n.active {
		if !f.done {
			active = append(active, f)
		} else {
			n.release(f)
		}
	}
	for i := len(active); i < len(n.active); i++ {
		n.active[i] = nil
	}
	n.active = active
}

// reschedule refreshes completion events after a water-fill. A flow's
// event is pending in n.events from the first fill after Start until
// complete nils it, so re-fitting is an in-place EventSet.Reschedule —
// no cancelled tombstones pile up, and a fill's re-keys touch the set's
// heap, not the kernel's, which re-keys the set's one slot once — and
// scheduling reuses the flow object's completion closure.
func (n *FlowNet) reschedule(now sim.Time) {
	for _, f := range n.active {
		// An unchanged rate means the previously scheduled completion
		// time is still exact (fluid drain is linear); skipping the
		// reschedule avoids re-keying thousands of events when a
		// recompute leaves most flows untouched.
		if f.event != nil && f.rate == f.prevRate { //dpml:allow floateq -- bit-identical rate keeps the scheduled completion exact
			continue
		}
		d := sim.TransferTime(int64(math.Ceil(f.remaining)), f.rate)
		at := now.Add(d)
		if f.event != nil {
			if f.event.When() != at {
				n.events.Reschedule(f.event, at)
			}
			continue
		}
		f.event = n.events.At(at, f.fire)
	}
}

// ufFind resolves a provisional component id to its root with path
// halving. Entries may hold ^denseID (negative) once the root has been
// claimed during the remap pass; those stop the walk and carry the dense
// id forward, so halving across them is still sound.
func ufFind(uf []int32, x int32) int32 {
	for uf[x] >= 0 && uf[x] != x {
		if p := uf[uf[x]]; p >= 0 {
			uf[x] = p
		}
		x = uf[x]
	}
	return x
}

// findComponents partitions the live flows and their links into connected
// components of the flow-link bipartite graph and buckets them into
// n.comps, returning the component count. Two flows land in the same
// component iff they transitively share a link — exactly the set whose
// max-min fair rates are coupled — so filling components independently is
// an exact decomposition, not an approximation.
//
// Numbering and bucket order are canonical: dense component ids are
// assigned in first-appearance order over n.active, each component's
// flows preserve n.active order, and its links preserve global
// first-touch order. Every downstream float sum therefore runs in the
// same order regardless of how many components exist.
func (n *FlowNet) findComponents() int {
	if n.oneLink() {
		return 1
	}
	return n.unionComponents()
}

// oneLink builds the single component directly, and reports true, when
// every live flow crosses one and the same link: the shape of every
// node's memory channel. It leaves the state union-find would: the
// link compacted, every flow in n.active order, and one unfrozen count
// per flow.
func (n *FlowNet) oneLink() bool {
	if len(n.active[0].links) != 1 {
		return false
	}
	l := n.active[0].links[0]
	for _, f := range n.active[1:] {
		if len(f.links) != 1 || f.links[0] != l {
			return false
		}
	}
	n.gen++
	l.mark = n.gen
	l.compact(n)
	l.comp, l.unfrozen = 0, len(n.active)
	if len(n.comps) == 0 {
		n.comps = append(n.comps, component{})
	}
	c := &n.comps[0]
	c.flows = append(c.flows[:0], n.active...)
	c.links = append(c.links[:0], l)
	for _, f := range n.active {
		f.comp = 0
	}
	return true
}

// unionComponents is findComponents for any flow-link graph.
func (n *FlowNet) unionComponents() int {
	// Pass 1: union-find over provisional ids. Links are stamped, then
	// compacted once per recompute here (see Link.compact).
	n.gen++
	uf := n.uf[:0]
	for _, f := range n.active {
		root := int32(-1)
		for _, l := range f.links {
			if l.mark != n.gen {
				l.mark = n.gen
				l.compact(n)
				l.comp = -1
			}
			if l.comp < 0 {
				continue
			}
			r := ufFind(uf, l.comp)
			if root < 0 || r == root {
				root = r
			} else if r < root {
				uf[root] = r
				root = r
			} else {
				uf[r] = root
			}
		}
		if root < 0 {
			root = int32(len(uf))
			uf = append(uf, root)
		}
		f.comp = root
		for _, l := range f.links {
			if l.comp < 0 {
				l.comp = root
			}
		}
	}

	// Pass 2: resolve roots to dense ids (claimed roots store ^denseID in
	// place) and bucket flows and links per component.
	n.gen++
	count := int32(0)
	for _, f := range n.active {
		r := ufFind(uf, f.comp)
		var id int32
		if uf[r] < 0 {
			id = ^uf[r]
		} else {
			id = count
			uf[r] = ^count
			count++
			if int(id) == len(n.comps) {
				n.comps = append(n.comps, component{})
			}
			n.comps[id].flows = n.comps[id].flows[:0]
			n.comps[id].links = n.comps[id].links[:0]
		}
		f.comp = id
		c := &n.comps[id]
		c.flows = append(c.flows, f)
		for _, l := range f.links {
			if l.mark != n.gen {
				l.mark = n.gen
				l.unfrozen = 0
				l.comp = id
				c.links = append(c.links, l)
			}
			l.unfrozen++
		}
	}
	n.uf = uf
	return int(count)
}

// fillComponent settles elapsed progress, water-fills rates, and refreshes
// bottleneck flags for one component. Every flow belongs to exactly one
// component and every link's flows all share that component, so the state
// one component touches is disjoint from every other's.
func (n *FlowNet) fillComponent(c *component, now sim.Time) {
	for _, f := range c.flows {
		if dt := now.Sub(f.lastSettle); dt > 0 {
			moved := f.rate * dt.Seconds()
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, l := range f.links {
				l.moved += moved
				l.chargeBusy(f.lastSettle, now)
			}
		}
		f.lastSettle = now
		f.frozen = false
		f.prevRate = f.rate
		f.rate = 0
	}

	n.waterFill(c)

	// Record which links this fill saturated. Completions on links with
	// spare capacity take the incremental fast path (see complete). The
	// tolerance errs toward "bottleneck": misflagging a saturated link as
	// free would skip a required recompute, while the reverse only costs
	// a redundant one.
	for _, l := range c.links {
		used := 0.0
		for _, f := range l.flows {
			used += f.rate
		}
		l.bottleneck = l.capacity-used <= l.capacity*1e-6
	}
}

// waterFill assigns max-min fair rates within one component. Each
// iteration recomputes every link's fair share from scratch — residual
// capacity summed over the link's frozen flows in list order, divided by
// its unfrozen count — then freezes the tightest constraint: flows whose
// own cap binds first, otherwise the flows of every link whose share sits
// at the minimum, each frozen at its own link's share.
//
// The from-scratch share and freeze-at-own-share rules are what make the
// fill canonical: a frozen rate is always either f.cap or a share computed
// purely from that link's flow list, never a value imported from another
// link or component. The minimum share only decides *when* a flow freezes,
// not the value it freezes at, so running a component alone produces
// bit-identical rates to running it inside a global fill (up to exact-tie
// grouping, which the tolerances below make consistent either way).
// Symmetric collective traffic typically converges in one or two
// iterations.
func (n *FlowNet) waterFill(c *component) {
	unfrozen := len(c.flows)
	const eps = 1e-9
	for unfrozen > 0 {
		// Recompute each link's fair share and find the tightest.
		share := math.Inf(1)
		for _, l := range c.links {
			if l.unfrozen == 0 {
				continue
			}
			used := 0.0
			for _, f := range l.flows {
				if f.frozen {
					used += f.rate
				}
			}
			r := l.capacity - used
			if r < 0 {
				r = 0
			}
			l.share = r / float64(l.unfrozen)
			if l.share < share {
				share = l.share
			}
		}
		// Flows whose own cap binds before the link share freeze at
		// their cap, freeing capacity for the rest.
		capFroze := false
		for _, f := range c.flows {
			if !f.frozen && f.cap <= share+eps {
				f.frozen = true
				f.rate = f.cap
				for _, l := range f.links {
					l.unfrozen--
				}
				unfrozen--
				capFroze = true
			}
		}
		if capFroze {
			continue
		}
		// Otherwise bottleneck links bind. Snapshot the binding set
		// before freezing anything — freezing mutates unfrozen counts,
		// and membership must not depend on within-pass order — then
		// freeze each binding link's flows at that link's own share.
		for _, l := range c.links {
			l.binds = l.unfrozen > 0 && l.share <= share*(1+1e-9)+eps
		}
		froze := false
		for _, l := range c.links {
			if !l.binds {
				continue
			}
			for _, f := range l.flows {
				if !f.frozen {
					f.frozen = true
					f.rate = l.share
					for _, fl := range f.links {
						fl.unfrozen--
					}
					unfrozen--
					froze = true
				}
			}
		}
		if !froze {
			// Numerically impossible, but never spin.
			panic("fabric: water-filling found no binding constraint")
		}
	}
}
