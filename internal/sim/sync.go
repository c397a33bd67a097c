package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Signal is a broadcast/wakeup primitive for procs, analogous to a
// condition variable: procs wait on it with WaitUntil and FireAll
// releases them in FIFO order, which keeps simulations deterministic.
type Signal struct {
	waiters []*Proc
}

// Cond is a wait condition for Signal.WaitUntil. Ready reports whether
// the waiter may go on. String names the wait in deadlock and watchdog
// reports and runs only when a report is built, so a reason made from
// the waiter's state costs nothing per wait.
type Cond interface {
	fmt.Stringer
	Ready() bool
}

// WaitUntil parks p until c is ready; it returns at once if c already
// is. It behaves as a loop that parks p on s and re-checks c after
// every release, without the loop's switches. The scheduler re-checks c when it pops the released proc, at the
// exact instant and ready-ring position where the proc would have run.
// If c is still false it puts p back on s's waiters, as the loop would
// have, without a switch. Ready must only read state of p's
// LP, and c must stay valid while p is parked.
func (s *Signal) WaitUntil(p *Proc, c Cond) {
	if !s.ArmWaitUntil(p, c) {
		p.Park()
	}
}

// ArmWaitUntil is WaitUntil's arm form: it reports true when c is
// already ready and otherwise arms p to park on s until it is.
func (s *Signal) ArmWaitUntil(p *Proc, c Cond) bool {
	if c.Ready() {
		return true
	}
	s.waiters = append(s.waiters, p)
	p.cond, p.condOn = c, s
	p.arm("")
	return false
}

// FireAll readies every waiter (FIFO order) and returns how many were
// released.
func (s *Signal) FireAll() int {
	n := len(s.waiters)
	for _, p := range s.waiters {
		p.k.readyProc(p)
	}
	s.waiters = s.waiters[:0]
	return n
}

// Coordinator partitions one simulation's logical processes — one LP per
// node plus one for the shared network — across kernels and runs them
// under a conservative time-window protocol. Run is the only way a
// simulation runs, and the only code that decides how it ends. With one
// shard a single kernel owns every LP, and its window runs until the
// watchdog deadline or until nothing is left to fire; with more, each
// shard kernel runs its window on its own goroutine (shard 0 on Run's
// caller) and the network LP gets a kernel of its own. Either way the
// simulation's behavior is bit-identical: event keys are (at, phase,
// origin LP, per-LP counter) for every partition, LP state is disjoint,
// and no callback may touch another LP's state, so pop order — and
// therefore every simulated outcome — does not depend on the shard
// count. The phase bit sorts network-LP events after node-LP events at
// their instant (see Kernel.permKey), which is the order the network
// phase below gives them when the network LP has a kernel of its own.
//
// The synchronization scheme is the textbook conservative one: no shard
// may execute past the earliest instant at which another shard could
// still send it work. Cross-shard events (other than into the network LP)
// must fire at least `lookahead` after their creation — in this codebase
// the inter-node wire latency, which every cross-node interaction pays —
// so all kernels can safely run windows before exchanging outboxes at a
// barrier. The network LP runs single-threaded between shard phases:
// zero-delay injection into it is always legal because its window fires
// after every shard's.
//
// Window horizons are adaptive, per kernel. Kernel j's window opens at
// horizon h_j = min over the other kernels' earliest pending instant t_i,
// plus the lookahead: nothing another kernel does this window can land in
// j below that. When j itself emits a cross-kernel event mid-window, its
// horizon shrinks to the earliest instant a reaction to that event could
// reach back (route): the event's time plus the lookahead for shard
// kernels, the event's time itself for the network kernel, whose
// recipients may inject back with zero delay. A kernel whose peers are
// all idle therefore runs arbitrarily far between barriers — the fixed
// base+L horizon barriered ~once per wire latency even when every event
// was shard-local — while dense cross-shard phases degrade to exactly
// the fixed-window behavior. The executed prefix of each LP's event
// sequence is horizon-independent (keys are assigned at creation), so
// results stay bit-identical; only the barrier count changes.
type Coordinator struct {
	nodes     int
	shards    int // shard kernels: kernels[:shards]
	lookahead Duration

	// kernels lists every distinct kernel: the shard kernels, then the
	// network kernel when it is a kernel of its own. With one shard,
	// netK is kernels[0].
	kernels []*Kernel
	netK    *Kernel
	shardOf []int32 // node LP -> shard index

	// The run's verdict settings (see SetWatchdog and SetDiagnostic).
	watchdogAt Time
	diag       func() string

	winStart []chan struct{} // window-open signal for shards 1..shards-1
	winDone  chan struct{}   // shard -> coordinator window-exhausted signal

	tbuf   []Time // per-round scratch: each kernel's earliest pending instant
	rounds uint64 // window barriers executed (see Rounds)

	started bool
}

// NewCoordinator builds the kernels for a simulation with the given
// number of node LPs, split across shards. lookahead is the conservative
// bound on cross-node latency (the inter-node wire latency): a
// non-positive lookahead admits no safe window, so shards is forced to 1.
// shards is clamped to [1, nodes]. A one-node, one-shard coordinator is
// the smallest simulation: one kernel whose procs and events default to
// LP 0.
func NewCoordinator(nodes, shards int, lookahead Duration) *Coordinator {
	if nodes < 1 {
		nodes = 1
	}
	// Raw keys must stay below bit 63, the net LP's phase bit (see
	// Kernel.permKey). The origin block starts at bit 44, leaving 19
	// bits for origin+1 <= nodes+1.
	if nodes+2 >= 1<<19 {
		panic("sim: NewCoordinator on a simulation too large for 63-bit event keys")
	}
	if shards < 1 || lookahead <= 0 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	c := &Coordinator{
		nodes:      nodes,
		shards:     shards,
		lookahead:  lookahead,
		shardOf:    make([]int32, nodes),
		watchdogAt: maxTime,
		winStart:   make([]chan struct{}, shards-1),
		winDone:    make(chan struct{}, shards),
	}
	if shards == 1 {
		// One kernel owns every node LP and the network LP.
		c.netK = c.addKernel(0, nodes+1)
	} else {
		for i := 0; i < shards; i++ {
			base, end := i*nodes/shards, (i+1)*nodes/shards
			c.addKernel(base, end-base)
			for n := base; n < end; n++ {
				c.shardOf[n] = int32(i)
			}
		}
		c.netK = c.addKernel(nodes, 1)
	}
	for i := range c.winStart {
		c.winStart[i] = make(chan struct{}, 1)
	}
	c.tbuf = make([]Time, len(c.kernels))
	return c
}

// addKernel appends a kernel owning LPs [lpBase, lpBase+lpCount).
func (c *Coordinator) addKernel(lpBase, lpCount int) *Kernel {
	k := &Kernel{
		lpBase:    int32(lpBase),
		lpCount:   int32(lpCount),
		netLP:     int32(c.nodes),
		curLP:     int32(lpBase),
		oseq:      make([]uint64, lpCount),
		coord:     c,
		horizon:   maxTime,
		lookahead: c.lookahead,
		outbox:    make([][]outEvent, c.shards+1),
	}
	c.kernels = append(c.kernels, k)
	return k
}

// KernelFor returns the kernel owning the given node LP.
func (c *Coordinator) KernelFor(node int) *Kernel { return c.kernels[c.shardOf[node]] }

// NetKernel returns the kernel owning the shared network LP (shard
// kernel 0 itself with one shard).
func (c *Coordinator) NetKernel() *Kernel { return c.netK }

// ownerIdx maps an LP to its owner's index in the drain order: shard
// index for node LPs, shards for the network LP.
func (c *Coordinator) ownerIdx(lp int32) int {
	if lp == int32(c.nodes) {
		return c.shards
	}
	return int(c.shardOf[lp])
}

// route buffers a cross-kernel event into the source kernel's
// per-destination outbox. The event's key was already assigned by the
// source LP, so drain order cannot affect where it sorts.
//
// Routing also shrinks the source's own horizon: once src has emitted an
// event at o.at, a chain of reactions to it can reach back into src as
// early as o.at + lookahead (the recipient acts at o.at; anything it aims
// back at src pays the wire). The network kernel's recipients may inject
// back into it with zero delay, so its bound is o.at itself. Shrinking at
// emission time is what makes the adaptively widened horizons of Run
// safe: the static per-window horizon only accounts for events that
// existed at the barrier, not for consequences of this window's own
// sends.
func (c *Coordinator) route(src *Kernel, o outEvent) {
	i := c.ownerIdx(o.exec)
	src.outbox[i] = append(src.outbox[i], o)
	bound := o.at
	if src != c.netK {
		bound = o.at.Add(c.lookahead)
		if bound < o.at {
			bound = maxTime // overflow guard
		}
	}
	if bound < src.horizon {
		src.horizon = bound
	}
}

// drain merges a kernel's buffered cross-shard events into their
// destination heaps. Called only at window barriers, when no shard is
// executing.
func (c *Coordinator) drain(k *Kernel) {
	for idx, list := range k.outbox {
		if len(list) == 0 {
			continue
		}
		dst := c.netK
		if idx < c.shards {
			dst = c.kernels[idx]
		}
		for i := range list {
			dst.inject(list[i])
			list[i].fn = nil
		}
		k.outbox[idx] = list[:0]
	}
}

// SetWatchdog arms a virtual-time deadline: if any proc is still alive
// when the simulation's next live event would fire at or past it, Run
// aborts with a *WatchdogError naming every blocked proc instead of
// simulating a wedged workload forever. A run that completes before the
// deadline is unaffected, and a genuine global deadlock before the
// deadline is also reported as a WatchdogError (the deadline is the
// verdict the caller asked for). The deadline caps every window's
// horizon rather than being a pending event, so it never advances the
// clock. d <= 0 is a no-op; the watchdog is off by default. Must be
// called before Run.
func (c *Coordinator) SetWatchdog(d Duration) {
	if c.started {
		panic("sim: SetWatchdog after Run")
	}
	if d <= 0 {
		return
	}
	c.watchdogAt = Time(0).Add(d)
}

// SetDiagnostic installs a workload-level dump (per-rank pending
// requests, say) that is appended to deadlock and watchdog reports. The
// callback runs on Run's goroutine when the verdict is reached, with
// every kernel stopped, and must not block.
func (c *Coordinator) SetDiagnostic(fn func() string) { c.diag = fn }

// Now returns the simulation's current virtual time: the furthest any
// kernel has advanced. After Run returns it is the instant the last
// event fired.
func (c *Coordinator) Now() Time {
	var t Time
	for _, k := range c.kernels {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// Stats returns scheduler counters aggregated across all kernels. Events
// is identical for every shard count of the same simulation;
// ContextSwitch and HeapHighWater depend on the partitioning (but are
// deterministic for a fixed shard count).
func (c *Coordinator) Stats() KernelStats {
	var s KernelStats
	for _, k := range c.kernels {
		s.add(k.Stats)
	}
	return s
}

// Run drives the simulation to completion. It returns nil when every
// proc has finished and no live event remains, a *DeadlockError if procs
// are stuck with nothing left to fire, a *WatchdogError if the armed
// deadline expired with procs alive, or a *PanicError if a proc
// panicked. Each round it gives every shard kernel its own horizon (the
// earliest pending instant of any *other* kernel plus the lookahead,
// capped at the watchdog deadline — see the type comment for why that is
// safe), lets the shards run their events and procs below it in
// parallel, exchanges cross-shard events at the barrier, runs the
// network LP's window up to the earliest instant any shard could still
// inject, and repeats. A one-kernel run has no other kernel, so its
// window reaches the watchdog deadline (or never ends) and it runs
// inline on the caller. Run may only be called once, and returns only
// after its shard goroutines have exited.
func (c *Coordinator) Run() error {
	if c.started {
		panic("sim: Coordinator.Run called twice")
	}
	c.started = true
	for _, k := range c.kernels {
		k.started = true
	}
	shards := c.kernels[:c.shards]
	var wg sync.WaitGroup
	for i, ch := range c.winStart {
		k := shards[i+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
				k.drive()
				c.winDone <- struct{}{}
			}
		}()
	}
	defer func() {
		for _, ch := range c.winStart {
			close(ch)
		}
		wg.Wait()
	}()
	for {
		// Per-kernel earliest pending instant: the earliest live event, or
		// the clock of a kernel that still has ready procs (only possible
		// before the first window; windows end with empty ready queues).
		// The window base — the earliest instant anything can happen
		// anywhere — drives termination and the watchdog.
		ts := c.tbuf
		alive := 0
		for i, k := range c.kernels {
			t := maxTime
			if at, ok := k.peekAt(); ok {
				t = at
			}
			if k.ready.len() > 0 && k.now < t {
				t = k.now
			}
			ts[i] = t
			alive += k.alive
		}
		// min1/min2: smallest and second-smallest pending instants, so
		// each kernel's "earliest other" is min1 — or min2 for the unique
		// holder of min1.
		min1, min2 := maxTime, maxTime
		cnt1 := 0
		for _, t := range ts {
			switch {
			case t < min1:
				min2, min1, cnt1 = min1, t, 1
			case t == min1:
				cnt1++
			case t < min2:
				min2 = t
			}
		}
		base := min1
		if base == maxTime {
			switch {
			case alive == 0:
				return nil // clean completion
			case c.watchdogAt < maxTime:
				return c.fail(c.watchdogErr("none"))
			default:
				return c.fail(c.deadlockErr())
			}
		}
		if base >= c.watchdogAt {
			if alive > 0 {
				return c.fail(c.watchdogErr(fmt.Sprintf("t=%v", base)))
			}
			c.watchdogAt = maxTime // all procs finished; drain freely
		}
		// A barrier is where kernels exchange events; a one-kernel run
		// has none.
		if len(c.kernels) > 1 {
			c.rounds++
		}
		// Phase 1: every shard runs its window in parallel, each up to its
		// own horizon (dynamically shrunk by route as it emits).
		for i, k := range shards {
			m := min1
			if ts[i] == min1 && cnt1 == 1 {
				m = min2
			}
			h := m.Add(c.lookahead)
			if h <= m {
				h = maxTime // overflow guard (m may be the maxTime sentinel)
			}
			k.horizon = min(h, c.watchdogAt)
		}
		for _, ch := range c.winStart {
			ch <- struct{}{}
		}
		shards[0].drive()
		for range c.winStart {
			<-c.winDone
		}
		for _, k := range shards {
			if k.failure != nil {
				return c.fail(k.failure)
			}
		}
		for _, k := range shards {
			c.drain(k)
		}
		// Phase 2: the network LP's window, single-threaded. Runs after
		// the shard phase so zero-delay shard->net injection is legal. Its
		// horizon is the earliest instant any shard (with this barrier's
		// deliveries merged) could still act — and therefore still inject
		// into the network zero-delay; route shrinks it further if the
		// network itself emits, since its wire events wake nodes that may
		// inject back at their arrival instant. With one kernel, netK is
		// shard 0, which phase 1 has already run up to this horizon.
		hn := c.watchdogAt
		for _, k := range shards {
			if at, ok := k.peekAt(); ok && at < hn {
				hn = at
			}
			if k.ready.len() > 0 && k.now < hn {
				hn = k.now
			}
		}
		c.netK.horizon = hn
		c.netK.drive()
		if c.netK.failure != nil {
			return c.fail(c.netK.failure)
		}
		c.drain(c.netK)
	}
}

// Rounds returns the number of window barriers a multi-kernel run has
// executed — the adaptive-batching effectiveness metric (fixed horizons
// pay roughly one barrier per lookahead of simulated time; adaptive ones
// skip barriers whenever cross-shard traffic is sparse). Always 0 for a
// one-kernel run, which has no barriers.
func (c *Coordinator) Rounds() uint64 { return c.rounds }

// fail tears down every kernel's parked procs and returns err.
func (c *Coordinator) fail(err error) error {
	for _, k := range c.kernels {
		k.shutdown()
	}
	return err
}

// blockedAll lists every parked proc of every kernel as "name: reason",
// sorted for stable reports.
func (c *Coordinator) blockedAll() []string {
	var blocked []string
	for _, k := range c.kernels {
		for _, p := range k.procs {
			if p.state == stateBlocked {
				why := p.blockedOn
				if p.cond != nil {
					why = p.cond.String()
				}
				blocked = append(blocked, fmt.Sprintf("%s: %s", p.name, why))
			}
		}
	}
	sort.Strings(blocked)
	return blocked
}

func (c *Coordinator) watchdogErr(next string) *WatchdogError {
	e := &WatchdogError{Deadline: c.watchdogAt, Blocked: c.blockedAll(), NextEvent: next}
	if c.diag != nil {
		e.Diag = c.diag()
	}
	return e
}

func (c *Coordinator) deadlockErr() *DeadlockError {
	e := &DeadlockError{At: c.Now(), Blocked: c.blockedAll()}
	if c.diag != nil {
		e.Diag = c.diag()
	}
	return e
}
