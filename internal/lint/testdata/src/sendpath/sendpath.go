// Package sendpath exercises the outbox-discipline analyzer: code in
// one LP class may not schedule directly on another class's kernel
// (Kernel.At/After) or event set (EventSet.At/Reschedule) or wake
// another class's signal (Signal.FireAll); crossing the shard
// boundary must go through the AfterOn/AfterNet outboxes.
package sendpath

import "dpml/internal/sim"

// netSide is coordinator-side state.
//
//dpml:owner net
type netSide struct {
	k    *sim.Kernel
	done sim.Signal
	set  *sim.EventSet
}

// nodeSide is node-LP state.
//
//dpml:owner node
type nodeSide struct {
	k     *sim.Kernel
	ready sim.Signal
	set   *sim.EventSet
}

// A proc body scheduling directly on the net kernel bypasses the
// outbox.
func badAfter(p *sim.Proc, ns *netSide) {
	ns.k.After(5, func() {}) // want `sendpath: Kernel\.After schedules directly on a net-LP kernel from a node-LP context: sendpath\.badAfter \(runs as a proc body`
}

func badAt(p *sim.Proc, ns *netSide) {
	ns.k.At(0, func() {}) // want `Kernel\.At schedules directly on a net-LP kernel from a node-LP context`
}

// An event set is scheduling too: a set in a net-owned field, or one
// a net kernel made, is the net LP's.
func badSetAt(p *sim.Proc, ns *netSide) {
	ns.set.At(0, func() {}) // want `EventSet\.At schedules directly on a net-LP event set from a node-LP context`
}

func badSetReschedule(p *sim.Proc, ns *netSide, e *sim.Event) {
	ns.set.Reschedule(e, 10) // want `EventSet\.Reschedule schedules directly on a net-LP event set`
}

func badNewSet(p *sim.Proc, c *sim.Coordinator) {
	s := c.NetKernel().NewEventSet()
	s.At(1, func() {}) // want `EventSet\.At schedules directly on a net-LP event set`
}

// The class is traced through locals and through NetKernel().
func badLocal(p *sim.Proc, ns *netSide) {
	nk := ns.k
	nk.After(5, func() {}) // want `Kernel\.After schedules directly on a net-LP kernel`
}

func badNetKernel(p *sim.Proc, c *sim.Coordinator) {
	c.NetKernel().After(1, func() {}) // want `schedules directly on a net-LP kernel from a node-LP context`
}

// The reverse direction: a net callback poking a node kernel or waking
// a node-owned signal, directly or through a helper.
func badNetToNode(ns *netSide, nb *nodeSide) {
	ns.k.AfterNet(0, func() {
		nb.k.After(2, func() {}) // want `schedules directly on a node-LP kernel from a net-LP context: the callback at .*AfterNet`
	})
}

func badNetToNodeSet(ns *netSide, nb *nodeSide, e *sim.Event) {
	ns.k.AfterNet(0, func() {
		nb.set.Reschedule(e, 4) // want `EventSet\.Reschedule schedules directly on a node-LP event set from a net-LP context`
	})
}

func badWakeDeep(ns *netSide, nb *nodeSide) {
	ns.k.AfterNet(0, func() { wakeNode(nb) })
}

func wakeNode(nb *nodeSide) {
	nb.ready.FireAll() // want `Signal\.FireAll wakes the node-owned signal sendpath\.nodeSide\.ready from a net-LP context: the callback at .*AfterNet\) → sendpath\.wakeNode`
}

// Legal patterns: same-class scheduling and wakes, and the outbox
// routing itself.
func okOwnKernel(p *sim.Proc, nb *nodeSide, e *sim.Event) {
	nb.k.After(3, func() {})
	nb.set.At(3, func() {})
	nb.set.Reschedule(e, 5)
	nb.ready.FireAll()
}

func okNetSet(ns *netSide, e *sim.Event) {
	ns.k.AfterNet(0, func() { ns.set.Reschedule(e, 7) })
}

func okOutbox(p *sim.Proc, ns *netSide) {
	p.Kernel().AfterNet(0, func() { ns.done.FireAll() })
}

func okNetOwn(ns *netSide) {
	ns.k.AfterNet(0, func() { ns.done.FireAll() })
}
