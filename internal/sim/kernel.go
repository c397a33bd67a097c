//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel runs simulated processes ("procs") as coroutines (iter.Pull)
// and executes exactly one of them at a time. All simulation state is
// therefore mutated without data races and every run is bit-for-bit
// reproducible: scheduling is decided only by the virtual clock, a FIFO
// ready queue, and event queues ordered by instant with an (LP, counter)
// tiebreaker.
//
// Scheduling is a coroutine loop. Each kernel has one driver loop (drive)
// that resumes the proc chosen by the last scheduling decision and runs
// until its window is over. The scheduler step — ready-queue pop,
// event pop, clock advance — executes inline in whichever proc is
// giving up control, which names the next proc and yields to the driver:
// a handoff is two coroutine switches and never goes through the Go
// scheduler. When the parking proc turns out to be the next to run — in
// particular when it sleeps and its own wakeup is the earliest live
// event — it continues without any switch at all. Every sleep schedules
// its wakeup event, so that path costs one event push and pop and no
// switch. A proc that has nothing to do yet is not switched to either:
// one in Signal.WaitUntil whose condition is still false is re-parked by
// the scheduler itself.
//
// Procs interact with the kernel through blocking primitives (Sleep,
// Signal.WaitUntil). Each is an arm form, which sets up
// the wait and marks the proc parked without switching, followed by one
// Park; a wait whose wakeup the caller schedules itself arms with
// Proc.ArmWake and is ended by Proc.Wake. A proc that has several waits
// in a row to get through can run them as a step machine
// (Proc.RunSteps): it parks once, and the scheduler runs the machine's
// code in its place, arming each wait in turn, until the machine is
// done. When every proc is parked, the inline scheduler pops the
// earliest event below the window's horizon, advances the virtual clock
// to it, and fires its callback, which typically readies one or more
// procs. When nothing is ready and no event is due below the horizon,
// the window is over.
//
// # Event queues
//
// A plain event (Kernel.At, After, AtOn, AfterNet) goes in the kernel's
// instant queue: the events at the current instant ordered by
// tiebreaker alone, each later instant's events in a list until the
// kernel reaches it. Events an owner re-keys in bulk — the
// flow scheduler's completion events, re-fitted after every
// water-fill — go in an EventSet instead: the set keeps them in a heap
// of its own with one slot in the kernel's slot heap, keyed as its
// earliest event. A re-key (EventSet.Reschedule) touches only the set's
// heap and marks the set dirty; before the kernel next pops or peeks it
// restores every dirty set once and re-keys its slot. Each pop takes
// the smaller of the instant queue's and the slot heap's tops. Keys stay
// unique and are minted as Kernel.At mints them, so the kernel pops
// exactly the events, in exactly the order, it would if every event sat
// in one (at, prio) heap.
//
// # Logical processes and the run loop
//
// Every proc and event belongs to a logical process (LP): one per node
// plus one for the shared network. A Coordinator (see sync.go) partitions
// the LPs of one simulation across kernels — a single kernel owning all
// of them, or one per shard plus one for the network — and Coordinator.Run
// is the only way a simulation runs: it opens each kernel's windows under
// a conservative time-window protocol and alone decides how the run ends
// (clean completion, deadlock, watchdog expiry, or a proc panic). Event
// keys are (at, phase, origin LP, per-LP counter) for every partition,
// where the phase bit sorts network-LP events after node-LP events at
// their instant, as the window protocol runs them; so the pop order, and
// therefore the simulation's entire behavior, is identical for every
// shard count.
package sim

import (
	"fmt"
	"iter"
	"strings"
)

// maxTime is the sentinel "never" instant for horizons and deadlines.
const maxTime = Time(1 << 62)

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process. A Proc handle is only valid inside the
// function passed to Kernel.Spawn, and all of its methods must be called
// from inside that function.
type Proc struct {
	k    *Kernel
	lp   int32 // owning logical process (shard-local state domain)
	name string
	// The body's coroutine: the driver resumes it with next, it gives
	// control back with yield, and shutdown unwinds it with stop.
	next      func() (struct{}, bool)
	stop      func()
	yield     func(struct{}) bool
	state     procState
	blockedOn string
	// cond and condOn are set while the proc waits in Signal.WaitUntil:
	// the scheduler re-checks cond whenever condOn releases the proc, and
	// cond replaces blockedOn in reports.
	cond   Cond
	condOn *Signal
	// wake readies the proc: one cached closure per proc rather than
	// one per call, handed out by Wake (see ArmWake).
	wake func()
	// step is set while p runs a step machine (see RunSteps): the
	// scheduler calls it in p's place whenever it would resume p.
	step func() bool
}

// Name returns the label given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// LP returns the logical process (node) the proc belongs to.
func (p *Proc) LP() int { return int(p.lp) }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// errKilled is panicked inside a parked proc whose coroutine shutdown
// stops (deadlock or abort), so its stack unwinds cleanly.
type errKilled struct{}

// DeadlockError is returned by Coordinator.Run when no event can advance
// the simulation while procs remain blocked.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: reason" for each parked proc
	Diag    string   // optional workload diagnostic (see Coordinator.SetDiagnostic)
}

func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("sim: deadlock at t=%v; blocked procs:\n  %s",
		e.At, strings.Join(e.Blocked, "\n  "))
	if e.Diag != "" {
		msg += "\n" + e.Diag
	}
	return msg
}

// WatchdogError is returned by Coordinator.Run when a watchdog deadline
// (see Coordinator.SetWatchdog) expires with procs still alive: the run
// is aborted with a dump of every parked proc's wait reason, the
// earliest pending event, and any workload diagnostic, instead of
// simulating a wedged collective forever (or until global deadlock,
// which a stuck-but-still-ticking scenario never reaches).
type WatchdogError struct {
	Deadline  Time
	Blocked   []string // "name: reason" for each parked proc
	NextEvent string   // earliest pending event past the deadline, "none" if dry
	Diag      string   // optional workload diagnostic (see Coordinator.SetDiagnostic)
}

func (e *WatchdogError) Error() string {
	msg := fmt.Sprintf("sim: watchdog expired at t=%v; blocked procs:\n  %s\nnext pending event: %s",
		e.Deadline, strings.Join(e.Blocked, "\n  "), e.NextEvent)
	if e.Diag != "" {
		msg += "\n" + e.Diag
	}
	return msg
}

// PanicError wraps a panic raised inside a proc, inside a step the
// scheduler ran in a proc's place (see Proc.RunSteps), or inside an
// event callback. Proc names that proc, or the proc whose scheduler step
// fired the callback; a callback the kernel's driver loop fired itself
// is named after the LP it ran as ("LP 3").
type PanicError struct {
	Proc  string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", e.Proc, e.Value)
}

// KernelStats counts scheduler activity; useful in tests and reports.
// Events is identical for every shard count of the same simulation;
// ContextSwitch and HeapHighWater depend on how LPs are split across
// kernels and are therefore deterministic per shard count but not
// shard-invariant.
type KernelStats struct {
	Events uint64
	// ContextSwitch counts coroutine resumes: scheduling decisions that
	// pick a proc other than the one deciding. Each costs the host two
	// coroutine switches (into the driver loop and out to the proc). A
	// proc that resumes itself (a lone sleeper firing its own wakeup), has
	// nothing to do yet (WaitUntil) or whose step the scheduler runs in
	// its place (RunSteps) costs none and is not counted.
	ContextSwitch uint64
	// HeapHighWater is the largest number of events pending at once,
	// in the kernel's instant queue or in an event set — the
	// scheduler's memory footprint peak. Summed over kernels, it counts
	// each kernel's own peak. A host-side counter only; tracking it
	// cannot affect virtual time.
	HeapHighWater uint64
}

// add accumulates other into s (used by Coordinator.Stats).
func (s *KernelStats) add(o KernelStats) {
	s.Events += o.Events
	s.ContextSwitch += o.ContextSwitch
	s.HeapHighWater += o.HeapHighWater
}

// outEvent is a cross-shard event creation buffered in the source
// kernel's per-destination outbox until the next window barrier. The key
// (at, prio) was fixed at creation time by the source LP, so the order
// outboxes are drained in cannot affect where the event sorts.
type outEvent struct {
	at   Time
	prio uint64
	exec int32
	fn   func()
}

// Kernel owns a virtual clock, event queues, and a proc scheduler for
// one shard's worth of logical processes. Its job is to fire events and
// schedule procs below the horizon its coordinator sets. Kernels are
// built by NewCoordinator and run by Coordinator.Run.
type Kernel struct {
	now Time
	// queue holds the plain events; events is the slot heap, one slot
	// per non-empty event set, keyed as the set's earliest event.
	queue  instantQueue
	events eventHeap
	epool  []*Event // dead events recycled by At (see Event doc)
	// pending counts scheduled events, in the queue or in a set; dirty
	// lists the sets re-keyed since the kernel last popped or peeked.
	pending int
	dirty   []*EventSet

	// LP bookkeeping. The kernel owns the contiguous LP range
	// [lpBase, lpBase+lpCount); curLP tracks which LP's code is
	// executing (the running proc's LP, or a firing event's exec LP) and
	// keys every event the code creates. oseq holds one creation counter
	// per owned LP: each LP executes identically under any shard count,
	// so the counters — and with them every event key — are globally
	// consistent.
	lpBase, lpCount int32
	netLP           int32
	curLP           int32
	oseq            []uint64

	procs []*Proc
	ready procRing // FIFO
	alive int

	// The window protocol: schedule stops at horizon and ends the window,
	// and AtOn calls aimed at another kernel's LP buffer into outbox
	// (drained by the coordinator at barriers).
	coord     *Coordinator
	horizon   Time
	lookahead Duration
	outbox    [][]outEvent

	// Schedule exploration (see explore.go). explore == nil means the
	// canonical schedule with zero overhead on the hot paths. When set,
	// push perturbs same-instant tiebreaks through explore.perm, and the
	// fire loops fold each LP's executed (at, raw) sequence into digest
	// (plus adjacent same-instant pairs into ties). All
	// arrays are indexed by lp - lpBase.
	explore *exploreState
	digest  []uint64
	lastAt  []Time
	lastRaw []uint64
	lastSeq []uint64
	fireSeq uint64
	ties    [][]TiePair

	// handoff is the proc a parking or exiting proc chose for the driver
	// loop to resume next; nil ends the run or the window.
	handoff      *Proc
	started      bool
	shuttingDown bool  // unwinding procs neither schedule nor park
	failure      error // first proc panic, aborts the run

	Stats KernelStats
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// NetLP returns the LP id of the simulation's shared network domain.
func (k *Kernel) NetLP() int { return int(k.netLP) }

func (k *Kernel) owns(lp int32) bool {
	return lp >= k.lpBase && lp < k.lpBase+k.lpCount
}

// nextPrio assigns the next event key tiebreaker for events created by
// origin: the LP id plus one in the high bits, so no key is zero, and
// the LP's private creation counter below.
func (k *Kernel) nextPrio(origin int32) uint64 {
	i := origin - k.lpBase
	k.oseq[i]++
	return uint64(origin+1)<<44 | k.oseq[i]
}

// permKey maps an event's raw (origin, counter) key to its heap key.
// The order is phase-normalized: a network-LP event's key gets bit 63,
// so it sorts after every node-LP event at its instant, as the window
// protocol's net phase runs after the node phase at every shard count.
// A node-LP key is the raw key, or its image under an exploration
// config's 63-bit bijection (see explore.go).
func (k *Kernel) permKey(at Time, raw uint64, exec int32) uint64 {
	if exec == k.netLP {
		return raw | 1<<63
	}
	if k.explore == nil {
		return raw
	}
	return k.explore.perm(at, raw)
}

// newEvent allocates (or recycles) a pending event. prio is the raw
// (origin, counter) key minted by nextPrio; the heap key is its permKey
// image, while raw is kept on the event for digesting (see explore.go).
// The caller puts the event in the kernel's instant queue (push) or in a
// set (EventSet.At).
func (k *Kernel) newEvent(at Time, prio uint64, exec int32, fn func()) *Event {
	key := k.permKey(at, prio, exec)
	var born uint64
	if k.explore != nil {
		born = k.fireSeq
	}
	var e *Event
	if n := len(k.epool); n > 0 {
		e = k.epool[n-1]
		k.epool[n-1] = nil
		k.epool = k.epool[:n-1]
		*e = Event{at: at, prio: key, raw: prio, born: born, exec: exec, fn: fn}
	} else {
		e = &Event{at: at, prio: key, raw: prio, born: born, exec: exec, fn: fn}
	}
	k.pending++
	if n := uint64(k.pending); n > k.Stats.HeapHighWater {
		k.Stats.HeapHighWater = n
	}
	return e
}

// push schedules a new plain event in the kernel's instant queue.
func (k *Kernel) push(at Time, prio uint64, exec int32, fn func()) {
	k.queue.push(k.newEvent(at, prio, exec, fn))
}

// inject merges a cross-shard event (drained from a source kernel's
// outbox) into this kernel's instant queue. Called only by the
// coordinator at window barriers, when no shard is executing. An event
// landing below the destination's clock would mean the window protocol
// let the destination run past an instant another kernel could still
// populate — with adaptive horizons that is exactly the invariant
// route's shrinking maintains, so it is checked here rather than
// silently clamped.
func (k *Kernel) inject(o outEvent) {
	if o.at < k.now {
		panic(fmt.Sprintf("sim: cross-shard event at t=%v delivered to kernel already at t=%v", o.at, k.now))
	}
	k.push(o.at, o.prio, o.exec, o.fn)
}

// At schedules fn to run in kernel context when the virtual clock reaches
// t, on the current LP. Scheduling in the past (t < Now) is clamped to
// Now, which makes the event fire before any later-scheduled work. An
// event that may need rescheduling goes in an EventSet instead.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.push(t, k.nextPrio(k.curLP), k.curLP, fn)
}

// AtOn schedules fn to run at t as LP lp, which may live on another
// shard. No Event handle is returned: a cross-shard event cannot be
// rescheduled by its creator.
//
// Before Coordinator.Run, lp must be owned by this kernel and the event is keyed by
// the target LP itself, so pre-run setup (fault plans, watchdogs)
// produces identical event keys under every shard count. During the run,
// a cross-LP event whose target is not the network LP must fire at least
// the coordinator's lookahead into the future — that bound is what lets
// shards run a whole time window without observing each other.
func (k *Kernel) AtOn(lp int, t Time, fn func()) {
	l := int32(lp)
	if t < k.now {
		t = k.now
	}
	if !k.started {
		if !k.owns(l) {
			panic(fmt.Sprintf("sim: pre-run AtOn(%d) on kernel owning [%d,%d)", lp, k.lpBase, k.lpBase+k.lpCount))
		}
		k.push(t, k.nextPrio(l), l, fn)
		return
	}
	if k.lookahead > 0 && l != k.curLP && l != k.netLP && t < k.now.Add(k.lookahead) {
		panic(fmt.Sprintf("sim: cross-LP event %d->%d at t=%v violates lookahead %v (now %v)",
			k.curLP, l, t, k.lookahead, k.now))
	}
	if k.owns(l) {
		k.push(t, k.nextPrio(k.curLP), l, fn)
		return
	}
	k.coord.route(k, outEvent{at: t, prio: k.nextPrio(k.curLP), exec: l, fn: fn})
}

// AfterOn schedules fn to run d from now as LP lp (see AtOn). Negative d
// is treated as zero.
func (k *Kernel) AfterOn(lp int, d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.AtOn(lp, k.now.Add(d), fn)
}

// AfterNet schedules fn to run d from now on the shared network LP.
// Zero-delay injection into the network domain is always legal: the
// network phase of every time window runs after all shard phases.
func (k *Kernel) AfterNet(d Duration, fn func()) {
	k.AfterOn(int(k.netLP), d, fn)
}

// recycle returns a fired event to the allocation pool.
func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	k.epool = append(k.epool, e)
}

// popEventBefore removes and returns the earliest event firing before
// limit, the smaller of the instant queue's and the slot heap's tops.
// Returns nil when no event remains below the limit.
func (k *Kernel) popEventBefore(limit Time) *Event {
	if len(k.dirty) > 0 {
		k.restoreSets()
	}
	q, h := &k.queue, &k.events
	if q.tier.len() == 0 && len(q.instants) > 0 {
		// The queue's keys at its next instant are known once that
		// instant is current, which it becomes if it fires next.
		if at := q.next(); at < limit && (h.len() == 0 || at <= h.a[0].at) {
			q.promote()
		}
	}
	fromQueue := q.tier.len() > 0 && q.cur < limit
	if h.len() > 0 && h.a[0].at < limit {
		top := h.a[0]
		if !fromQueue || top.at < q.cur || (top.at == q.cur && top.prio < q.tier.min()) {
			k.pending--
			if s := top.ev.set; s != nil {
				return s.pop()
			}
			// An entry that is no set's slot stands for itself.
			return h.pop()
		}
	}
	if !fromQueue {
		return nil
	}
	k.pending--
	return q.tier.pop()
}

// peekAt returns the instant of the earliest pending event.
func (k *Kernel) peekAt() (Time, bool) {
	if len(k.dirty) > 0 {
		k.restoreSets()
	}
	at, ok := k.queue.earliest()
	if k.events.len() > 0 && (!ok || k.events.a[0].at < at) {
		return k.events.a[0].at, true
	}
	return at, ok
}

// restoreSets restores every event set re-keyed since the kernel last
// popped or peeked, so each set's slot holds its earliest event.
func (k *Kernel) restoreSets() {
	for i, s := range k.dirty {
		k.dirty[i] = nil
		s.restore()
	}
	k.dirty = k.dirty[:0]
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now.Add(d), fn)
}

// Spawn registers a new proc running body on the kernel's first LP. It
// must be called before Coordinator.Run (procs spawning procs is not
// supported; MPI-style workloads spawn the whole world up front).
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnOn(int(k.lpBase), name, body)
}

// SpawnOn registers a new proc running body as LP lp, which must be
// owned by this kernel.
func (k *Kernel) SpawnOn(lp int, name string, body func(*Proc)) *Proc {
	if k.started {
		panic("sim: Spawn after Run")
	}
	if !k.owns(int32(lp)) {
		panic(fmt.Sprintf("sim: SpawnOn(%d) on kernel owning [%d,%d)", lp, k.lpBase, k.lpBase+k.lpCount))
	}
	p := &Proc{k: k, lp: int32(lp), name: name, state: stateReady}
	p.wake = func() { k.readyProc(p) }
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
	k.procs = append(k.procs, p)
	k.ready.push(p)
	k.alive++
	return p
}

// exit runs when a proc body returns or panics. It records a panic as
// the run's failure (the errKilled of a shutdown unwind is none) and,
// outside shutdown, runs the scheduler step and leaves its choice for the
// driver loop.
func (p *Proc) exit() {
	k := p.k
	if r := recover(); r != nil {
		if _, killed := r.(errKilled); !killed && k.failure == nil {
			k.failure = &PanicError{Proc: p.name, Value: r}
		}
	}
	p.state = stateDone
	k.alive--
	// The coroutine handles reach body and everything it captures; drop
	// them so a finished proc does not keep those alive with the kernel.
	p.next, p.stop, p.yield = nil, nil, nil
	if !k.shuttingDown {
		k.handoff = k.schedule(nil)
	}
}

// drive is the kernel's driver loop, run once per window by
// Coordinator.Run. It resumes the proc each scheduling decision chose
// until a decision ends the window; every resumed proc runs until it
// parks or exits, and leaves the next choice in handoff on the
// way out. A callback panic no proc body recovers fails the run, named
// after p out of p.next() (p's exit step), else after the LP it ran as.
func (k *Kernel) drive() {
	var p *Proc
	defer func() {
		if r := recover(); r != nil && k.failure == nil {
			name := fmt.Sprintf("LP %d", k.curLP)
			if p != nil {
				name = p.name
			}
			k.failure = &PanicError{Proc: name, Value: r}
		}
	}()
	for p = k.schedule(nil); p != nil; p = k.handoff {
		k.handoff = nil
		p.next()
	}
}

// schedule is the scheduler step, executed inline by whichever side gives
// up control: a parking proc (self), an exiting proc or the driver loop
// (self == nil). It fires events below the horizon until a proc is
// runnable and returns it, marked running; nil means the window is over
// (or a proc panic, recorded in failure, aborted it). A parking proc that
// gets itself back continues without any switch.
func (k *Kernel) schedule(self *Proc) *Proc {
	for {
		if k.failure != nil {
			return nil
		}
		if k.ready.len() > 0 {
			p := k.ready.pop()
			if p.state == stateDone {
				continue
			}
			if p.cond != nil {
				if !p.cond.Ready() {
					// A WaitUntil proc released too early: this is the
					// instant it would run, find its condition false
					// and wait on the signal again, so do that here
					// instead of switching to it.
					p.state = stateBlocked
					p.condOn.waiters = append(p.condOn.waiters, p)
					continue
				}
				p.cond, p.condOn = nil, nil
			}
			p.state = stateRunning
			p.blockedOn = ""
			k.curLP = p.lp
			if p.step != nil && !k.runStep(p) {
				// p's step ran the code p would have run up to its
				// next wait and armed that wait: p stays parked.
				continue
			}
			if p != self {
				k.Stats.ContextSwitch++
			}
			return p
		}
		e := k.popEventBefore(k.horizon)
		if e == nil {
			// The window is exhausted; the coordinator decides what
			// happens next (another window, termination, a verdict).
			return nil
		}
		if e.at > k.now {
			k.now = e.at
		}
		k.Stats.Events++
		k.curLP = e.exec
		if k.explore != nil {
			k.noteFire(e.at, e.raw, e.born, e.exec)
		}
		fn := e.fn
		k.recycle(e)
		fn()
	}
}

// shutdown unwinds every live proc so no goroutines leak after a failed
// run. It runs after the driver loop returned, when every live
// proc is suspended or never started. stop makes a suspended proc's yield
// return false, which unwinds it through errKilled and exit; for a proc
// that never started it runs nothing, so that proc's bookkeeping is done
// here.
func (k *Kernel) shutdown() {
	k.shuttingDown = true
	for _, p := range k.procs {
		if p.state == stateDone {
			continue
		}
		p.stop()
		if p.state != stateDone {
			p.state = stateDone
			k.alive--
		}
	}
	k.ready.reset()
}

// readyProc appends p to the ready queue. Kernel-internal; called from
// event callbacks and from the currently running proc.
func (k *Kernel) readyProc(p *Proc) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: readying proc %q in state %d", p.name, p.state))
	}
	p.state = stateReady
	k.ready.push(p)
}

// arm marks p parked on why without giving up control: the first half
// of every blocking primitive, which sets up the wait that will ready p
// and then either parks p (Park) or, in a step, returns false.
func (p *Proc) arm(why string) {
	p.state = stateBlocked
	p.blockedOn = why
}

// Park blocks p on the wait an arm form just armed (ArmSleep, ArmWake,
// Signal.ArmWaitUntil, or one built on them) until that wait readies
// it: every blocking primitive is its arm form plus one Park. The
// parking proc runs the scheduler inline; if it readies itself before
// anything else becomes runnable (firing its own wakeup event, say), it
// resumes with zero switches. Park must not be called from a step,
// which runs on another proc's stack.
func (p *Proc) Park() {
	if p.step != nil {
		panic(fmt.Sprintf("sim: blocking call inside a step of proc %q", p.name))
	}
	p.park()
}

func (p *Proc) park() {
	k := p.k
	if k.shuttingDown {
		panic(errKilled{})
	}
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: proc %q parks with no wait armed", p.name))
	}
	p.switchTo(k.schedule(p))
}

// RunSteps runs a step machine as p and returns when it is done. step
// runs the code p would run up to its next wait, arms that wait with an
// arm form, and returns false; it returns true once there is nothing
// left to wait for. RunSteps calls step once on p's own stack and, if
// that armed a wait, parks p. From then on, whenever the scheduler
// would resume p (p popped from the ready ring, a WaitUntil condition
// already true), it calls step in p's place, as p's LP, and resumes p's
// coroutine only when step returns true. So p parks once for the whole
// machine instead of once per wait.
//
// It is exact: a step runs at exactly the pop where the scheduler
// would have switched to p and does exactly what p would have done
// before parking again, so every event is minted by the same LP, in
// the same order, with the same key. Only Stats.ContextSwitch changes.
//
// A step must not block (Park panics inside one): it waits only through
// arm forms, which name each wait in reports. A panic inside a step
// fails the run with a PanicError naming p.
func (p *Proc) RunSteps(step func() bool) {
	if step() {
		return
	}
	p.step = step
	p.park()
}

// runStep calls p's step in p's place and reports whether p's machine
// is done, so its coroutine resumes; false leaves p parked on the wait
// the step armed. A panic in the step becomes the run's failure, named
// after p rather than after the proc whose stack ran the step.
func (k *Kernel) runStep(p *Proc) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			if k.failure == nil {
				k.failure = &PanicError{Proc: p.name, Value: r}
			}
			done = false
		}
	}()
	done = p.step()
	switch {
	case done && p.state != stateRunning:
		panic(fmt.Sprintf("sim: a step of proc %q finished with a wait armed", p.name))
	case !done && p.state != stateBlocked:
		panic(fmt.Sprintf("sim: a step of proc %q returned false without arming a wait", p.name))
	case done:
		p.step = nil
	}
	return done
}

// switchTo passes control to next, the choice of a scheduling decision p
// ran: when p chose itself there is nothing to do; otherwise p leaves
// next (nil when the window is over) to the driver loop and
// yields until the loop resumes it. A false yield means shutdown is
// stopping p, which unwinds it.
func (p *Proc) switchTo(next *Proc) {
	if next == p {
		return
	}
	p.k.handoff = next
	if !p.yield(struct{}{}) {
		panic(errKilled{})
	}
}

// Wake returns the proc's cached wakeup callback: one closure per proc,
// so blocking on it allocates nothing, where a Signal costs a waiter
// slot and a closure per wait. It must fire exactly once per ArmWake,
// while p is parked.
func (p *Proc) Wake() func() { return p.wake }

// ArmWake arms p to park on why until its Wake fires: the arm form of
// every wait whose wakeup the caller schedules itself (a sleep's event,
// a shared-memory copy's flow).
func (p *Proc) ArmWake(why string) { p.arm(why) }

// Sleep blocks the proc for d of virtual time. Negative d is treated as 0,
// which still schedules a wakeup event and parks.
func (p *Proc) Sleep(d Duration) {
	p.ArmSleep(d)
	p.Park()
}

// ArmSleep is Sleep's arm form: it schedules p's wakeup d from now and
// arms p to park on it. A lone sleeper whose wakeup is the earliest
// event still costs no switch: the scheduler it runs in Park fires that
// wakeup and hands p back to itself.
func (p *Proc) ArmSleep(d Duration) {
	p.k.After(d, p.wake)
	// A static reason: a sleeping proc always has a live wakeup event, so
	// it can never appear in a deadlock report, and formatting the target
	// time here put a fmt.Sprintf on the simulator's hottest path.
	p.ArmWake("sleep")
}

// procRing is the ready queue: a FIFO over a power-of-two ring buffer
// with O(1) push and pop. The previous slice-based FIFO shifted every
// remaining element on each pop, which made a single scheduling decision
// O(n) once thousands of procs were ready at the same instant (the
// steady state of a 10k-rank collective).
type procRing struct {
	buf  []*Proc
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes the oldest proc. Callers must check len first.
func (r *procRing) pop() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *procRing) reset() { *r = procRing{} }

func (r *procRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 64
	}
	buf := make([]*Proc, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
