// Package lpown exercises the LP-ownership analyzer: //dpml:owner
// state touched from the wrong execution context (directly or through
// helper chains, with the witness path in the message), cross-LP
// AfterOn delays that cannot be proven ≥ the lookahead, and malformed
// or misplaced annotations.
package lpown

import "dpml/internal/sim"

// netBox is coordinator-side state.
//
//dpml:owner net
type netBox struct {
	k     *sim.Kernel
	count int
	ready sim.Signal
}

// nodeBox is node-LP state; mixed is a deliberate handoff cell.
//
//dpml:owner node
type nodeBox struct {
	k       *sim.Kernel
	pending int
	mixed   int //dpml:owner shared -- externally synchronized handoff

	// frozen is set only at construction, so cross-class reads are
	// harmless.
	frozen int
}

func newNodeBox(k *sim.Kernel) *nodeBox {
	nb := &nodeBox{k: k}
	nb.frozen = 7 // constructor writes do not make a field mutable
	return nb
}

// A net-registered callback writing node state is the canonical
// violation.
func crossWrite(k *sim.Kernel, nb *nodeBox) {
	k.AfterNet(0, func() {
		nb.pending = 1 // want `lpown: field lpown\.nodeBox\.pending is node-owned but written from a net-LP context: the callback at .*registered on the net LP via AfterNet`
	})
}

// The same violation through a helper chain: the finding lands in the
// helper, with the registration-to-access path spelled out.
func crossWriteDeep(k *sim.Kernel, nb *nodeBox) {
	k.AfterNet(0, func() { bump(nb) })
}

func bump(nb *nodeBox) {
	nb.pending++ // want `node-owned but written from a net-LP context: the callback at .*AfterNet\) → lpown\.bump`
}

// Reading a mutable node field from the net context is also a finding.
func crossRead(k *sim.Kernel, nb *nodeBox) {
	k.AfterNet(0, func() {
		_ = nb.pending // want `field lpown\.nodeBox\.pending is node-owned but read from a net-LP context`
	})
}

// Reads of construction-frozen fields are fine anywhere.
func crossReadFrozen(k *sim.Kernel, nb *nodeBox) {
	k.AfterNet(0, func() { _ = nb.frozen })
}

// The shared override exempts the handoff cell.
func sharedOK(k *sim.Kernel, nb *nodeBox) {
	k.AfterNet(0, func() { nb.mixed = 3 })
}

// A proc body runs on a node LP: touching net state from it is the
// reverse violation.
func procTouch(p *sim.Proc, b *netBox) {
	b.count = 2 // want `field lpown\.netBox\.count is net-owned but written from a node-LP context: lpown\.procTouch \(runs as a proc body: \*sim\.Proc parameter\)`
}

// Same-class accesses are fine: a method on a node-owned struct writes
// its own field, and a net callback bumps net state.
func (nb *nodeBox) local() { nb.pending = 4 }

func netOK(b *netBox) {
	b.k.AfterNet(0, func() { b.count++ })
}

// A suppressed violation: the allowance silences the finding and is
// counted as used.
func suppressed(k *sim.Kernel, nb *nodeBox) {
	k.AfterNet(0, func() {
		nb.pending = 9 //dpml:allow lpown -- fixture: prove module findings honor allowances
	})
}

// record builds its callbacks once and registers them through its
// fields, as pooled records do: each literal stored into a field is
// rooted on the LP its field is registered on, not on the context that
// builds it.
type record struct {
	nb   *nodeBox
	b    *netBox
	land func()
	tick func()
}

func newRecord(nb *nodeBox, b *netBox) *record {
	r := &record{nb: nb, b: b}
	r.land = func() {
		r.b.count++ // want `net-owned but written from a node-LP context: the callback stored in land at .*registered on the node LP via AfterOn`
	}
	r.tick = func() { r.b.count++ }
	return r
}

func (r *record) post(k *sim.Kernel) {
	k.AfterOn(1, baseLat, r.land)
	k.AfterNet(0, r.tick)
}

// stepper runs a step machine: its step, a method value stored in a
// field once, is passed to RunSteps. The kernel calls the step as the
// stepping proc, on a node LP, from whatever stack is scheduling, so a
// step touching net state is a finding although no call edge reaches
// it.
type stepper struct {
	b   *netBox
	run func() bool
}

func newStepper(b *netBox) *stepper {
	s := &stepper{b: b}
	s.run = s.step
	return s
}

func (s *stepper) step() bool {
	s.b.count++ // want `net-owned but written from a node-LP context: lpown\.\*stepper\.step \(registered on the node LP via RunSteps\)`
	return true
}

func (s *stepper) drive(p *sim.Proc) { p.RunSteps(s.run) }

// A method value passed to RunSteps directly is rooted the same way.
func (s *stepper) direct() bool {
	s.b.count-- // want `net-owned but written from a node-LP context: lpown\.\*stepper\.direct \(registered on the node LP via RunSteps\)`
	return true
}

func (s *stepper) driveDirect(p *sim.Proc) { p.RunSteps(s.direct) }
