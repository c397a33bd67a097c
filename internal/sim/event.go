package sim

// Event is a scheduled callback in virtual time. Events are created with
// Kernel.At or EventSet.At; an event in a set may be rescheduled before
// it fires (EventSet.Reschedule). The callback runs in
// kernel context: it must not block, but it may schedule further events,
// ready parked procs, and mutate simulation state freely (each kernel is
// single-threaded with respect to its own shard's state).
//
// Event objects are pooled by the kernel: a handle is only valid until
// the event fires. Retaining a handle past that point and rescheduling
// it may affect an unrelated, recycled event.
type Event struct {
	at Time
	// prio breaks ties among events at the same instant: the heap key
	// Kernel.permKey derives from raw. A network-LP event's has bit 63
	// set, so it sorts after every node-LP event at its instant. Because
	// every LP executes in the same order under any shard count, the key
	// (at, prio) is a globally consistent total order: serial and
	// sharded runs pop events identically.
	prio uint64
	// raw is the (origin, counter) key nextPrio minted: the creating LP
	// plus one in the top bits and that LP's private creation counter in
	// the low 44. A node-LP event's prio equals it except under a
	// schedule-exploration config (see explore.go), when prio holds the
	// perturbed heap key and raw feeds the schedule digest so
	// behaviorally identical schedules hash equal.
	raw uint64
	// born is the kernel's fire sequence number at the instant the event
	// entered the heap, maintained only under exploration. Tie recording
	// uses it to tell genuine commutation points (both events pending
	// together) from causal same-instant pairs (the second event created
	// by the first one's callback), whose inversion is a no-op; see
	// Kernel.noteFire.
	born uint64
	fn   func()
	// set is non-nil only on an EventSet's slot: the one slot-heap entry
	// that stands for the whole set, keyed as the set's earliest event.
	set *EventSet
	// next links a plain event into the list of the later instant it is
	// pending at (see instantQueue).
	next  *Event
	exec  int32 // LP the callback runs as (kernel's curLP during fn)
	index int32 // current slot in an eventHeap; -1 once popped from one
}

// When returns the instant the event is scheduled to fire at.
func (e *Event) When() Time { return e.at }

// eventEntry is one heap slot. The ordering key (at, prio) is stored by
// value so comparisons stay inside the backing array: with ~10k pending
// events (one per rank of a large collective), a pointer-chasing
// comparator made the heap the simulator's single hottest path — every
// sift dereferenced two cold *Event allocations per level.
type eventEntry struct {
	at   Time
	prio uint64
	ev   *Event
}

// eventHeap is a 4-ary min-heap ordered by (at, prio). prio is unique
// within a kernel (LP id + per-LP counter), so the order is a strict
// total order and pop order is identical for any correct heap — switching
// arity or sift strategy cannot perturb simulation behavior. 4-ary halves
// the depth of a binary heap and its children share cache lines, which
// matters at 10k+ pending events. Sifts move a hole instead of swapping,
// writing each slot once, and maintain each event's index so update can
// re-key it in place. A kernel keeps one slot per non-empty EventSet in
// one, its slot heap, and each set keeps its events in one of its own.
type eventHeap struct {
	a []eventEntry
}

func (h *eventHeap) len() int { return len(h.a) }

func entryLess(x, y eventEntry) bool {
	return x.at < y.at || (x.at == y.at && x.prio < y.prio)
}

func (h *eventHeap) push(e *Event) {
	h.a = append(h.a, eventEntry{at: e.at, prio: e.prio, ev: e})
	h.siftUp(len(h.a) - 1)
}

// pop removes and returns the earliest event. Callers must check len
// first.
func (h *eventHeap) pop() *Event {
	a := h.a
	top := a[0].ev
	top.index = -1
	n := len(a) - 1
	x := a[n]
	a[n] = eventEntry{}
	h.a = a[:n]
	if n > 0 {
		a[0] = x
		x.ev.index = 0
		h.siftDown(0)
	}
	return top
}

// update re-keys the event at heap slot e.index to (at, prio) and
// restores heap order, without allocating or leaving a tombstone behind.
func (h *eventHeap) update(e *Event, at Time, prio uint64) {
	h.rekey(e, at, prio)
	if i := int(e.index); !h.siftUp(i) {
		h.siftDown(i)
	}
}

// rekey writes (at, prio) into e and its entry and leaves heap order to
// a later heapify.
func (h *eventHeap) rekey(e *Event, at Time, prio uint64) {
	e.at, e.prio = at, prio
	h.a[e.index].at, h.a[e.index].prio = at, prio
}

func (h *eventHeap) siftUp(i int) bool {
	a := h.a
	x := a[i]
	moved := false
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(x, a[parent]) {
			break
		}
		a[i] = a[parent]
		a[i].ev.index = int32(i)
		i = parent
		moved = true
	}
	a[i] = x
	x.ev.index = int32(i)
	return moved
}

func (h *eventHeap) siftDown(i int) {
	a := h.a
	n := len(a)
	x := a[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(a[j], a[m]) {
				m = j
			}
		}
		if !entryLess(a[m], x) {
			break
		}
		a[i] = a[m]
		a[i].ev.index = int32(i)
		i = m
	}
	a[i] = x
	x.ev.index = int32(i)
}

// heapify restores heap order over the whole array bottom-up, in O(n),
// after entries were re-keyed in place without sifting. Every entry
// still sits at its recorded index, so only moved entries need theirs
// rewritten, which siftDown does.
func (h *eventHeap) heapify() {
	for i := (len(h.a) - 2) >> 2; i >= 0; i-- {
		h.siftDown(i)
	}
}

// instantQueue holds a kernel's plain events — every event not in an
// EventSet — by instant. The simulated ranks run in lock step, so
// nearly every pop is a tie on at: fig5 pops 99% of its 19.3M events at
// the instant already on the clock, from about 1,200 pending. The events
// at the queue's current instant cur sit in tier, ordered by prio alone.
// An event at a later instant is linked through Event.next onto the
// end of a list of events at that instant, in O(1); instants holds
// each list's first event keyed by the instant. When the kernel reaches
// an instant, promote moves every list at it into the empty tier, in
// the order its events arrived.
//
// open finds a list by instant: a small table of list tails, indexed by
// a hash of the instant. An event whose instant's list is not in the
// table opens a list of its own, and promote merges an instant's lists,
// so a lookup may miss but never errs. A map from instant to list costs
// an insert and a delete per instant, which made every event at an
// instant of its own (BenchmarkPopDistinct) a third slower than one
// heap. Lists are intrusive because per-instant slices kept arrays
// sized for the largest instant alive with every retired instant: 5–6
// MB more peak RSS on a 10k-rank job.
//
// The queue pops in strict (at, prio) order, as one heap would: while
// the tier is non-empty, cur is the earliest instant in the queue, and
// no list is ever open at cur. An event earlier than a non-empty tier's
// cur, possible when the tier was filled ahead of the clock, demotes
// the tier to a list.
//
// A queue belongs to its kernel, like the kernel's slot heap: only
// that kernel's simulation context and the coordinator's inject, at a
// barrier while no kernel runs, touch it.
//
//dpml:owner shared
type instantQueue struct {
	cur      Time
	tier     tier
	instants keyHeap[Time]     // each list's first event, keyed by its instant
	open     [openSlots]*Event // each list's last event
}

// openSlots sizes instantQueue.open: on fig5, 99% of the pushes that
// join an instant with a list open find it in the table.
const openSlots = 16

// openSlot returns the slot of instantQueue.open for instant at, a
// Fibonacci hash of it.
func openSlot(at Time) int { return int(uint64(at) * 0x9e3779b97f4a7c15 >> 60) }

// push queues e.
func (q *instantQueue) push(e *Event) {
	switch {
	case q.tier.len() == 0:
		if len(q.instants) > 0 && q.next() <= e.at {
			q.link(e)
			return
		}
		q.cur = e.at
	case e.at > q.cur:
		q.link(e)
		return
	case e.at < q.cur:
		q.demote()
		q.cur = e.at
	}
	q.tier.add(e)
}

// link appends e, due after cur, to a list of events at its instant.
func (q *instantQueue) link(e *Event) {
	s := &q.open[openSlot(e.at)]
	if last := *s; last != nil && last.at == e.at {
		last.next = e
	} else {
		q.instants.push(e.at, e)
	}
	*s = e
}

// demote turns the tier into a list at cur, to make way for an earlier
// event. Only an event pushed while cur was ahead of the kernel's clock
// can be demoted, and at most once.
func (q *instantQueue) demote() {
	var head, last *Event
	for q.tier.len() > 0 {
		e := q.tier.pop()
		if head == nil {
			head = e
		} else {
			last.next = e
		}
		last = e
	}
	q.instants.push(head.at, head)
	q.open[openSlot(head.at)] = last
}

// next returns the earliest instant with a list open. Callers must
// check that there is one.
func (q *instantQueue) next() Time { return q.instants[0].key }

// earliest returns the instant of the queue's earliest event.
func (q *instantQueue) earliest() (Time, bool) {
	switch {
	case q.tier.len() > 0:
		return q.cur, true
	case len(q.instants) > 0:
		return q.next(), true
	}
	return 0, false
}

// promote makes the earliest instant with a list open current, moving
// its lists into the tier, which must be empty.
func (q *instantQueue) promote() {
	at := q.next()
	q.cur = at
	if s := &q.open[openSlot(at)]; *s != nil && (*s).at == at {
		*s = nil
	}
	for len(q.instants) > 0 && q.next() == at {
		for e := q.instants.pop(); e != nil; {
			next := e.next
			e.next = nil
			q.tier.add(e)
			e = next
		}
	}
}

// tier holds the events at one instant in prio order: run, from head
// on, the events that arrived with ascending keys, and heap the rest.
// Events at an instant mostly arrive in key order, since the kernel
// fires the events that schedule them in key order: on fig5, 3 in 4
// join run, and a pop from run's head is O(1) where a heap's sifts
// about log4 m levels.
type tier struct {
	run  []keyEntry[uint64]
	head int
	heap keyHeap[uint64]
}

func (t *tier) len() int { return len(t.run) - t.head + len(t.heap) }

// add puts e at the end of run if its key is above run's last, and in
// heap otherwise.
func (t *tier) add(e *Event) {
	if n := len(t.run); n == t.head || e.prio > t.run[n-1].key {
		t.run = append(t.run, keyEntry[uint64]{key: e.prio, ev: e})
		return
	}
	t.heap.push(e.prio, e)
}

// fromRun reports whether the tier's smallest key is run's head.
// Callers must check that the tier is not empty.
func (t *tier) fromRun() bool {
	return t.head < len(t.run) && (len(t.heap) == 0 || t.run[t.head].key < t.heap[0].key)
}

// min returns the tier's smallest key. Callers must check that the tier
// is not empty.
func (t *tier) min() uint64 {
	if t.fromRun() {
		return t.run[t.head].key
	}
	return t.heap[0].key
}

// pop removes and returns the tier's event with the smallest key.
// Callers must check that the tier is not empty.
func (t *tier) pop() *Event {
	if !t.fromRun() {
		return t.heap.pop()
	}
	e := t.run[t.head].ev
	t.run[t.head] = keyEntry[uint64]{}
	if t.head++; t.head == len(t.run) {
		t.run, t.head = t.run[:0], 0
	}
	return e
}

// keyEntry is one slot of a keyHeap, its key stored by value like
// eventEntry's.
type keyEntry[K Time | uint64] struct {
	key K
	ev  *Event
}

// keyHeap is a 4-ary min-heap of events under one-word keys, sifted
// like eventHeap. Its events are never re-keyed in place, so it keeps
// no index, and its keys may tie.
type keyHeap[K Time | uint64] []keyEntry[K]

func (h *keyHeap[K]) push(key K, e *Event) {
	*h = append(*h, keyEntry[K]{key: key, ev: e})
	a := *h
	i := len(a) - 1
	x := a[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if a[parent].key <= x.key {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = x
}

// pop removes and returns the event with the smallest key. Callers must
// check that the heap is not empty.
func (h *keyHeap[K]) pop() *Event {
	a := *h
	top := a[0].ev
	n := len(a) - 1
	x := a[n]
	a[n] = keyEntry[K]{}
	*h = a[:n]
	if n > 0 {
		a[0] = x
		h.siftDown(0)
	}
	return top
}

func (h keyHeap[K]) siftDown(i int) {
	n := len(h)
	x := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].key < h[m].key {
				m = j
			}
		}
		if h[m].key >= x.key {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// EventSet holds events that one owner re-keys often — the completion
// events of a FlowNet's flows, re-fitted after every water-fill — in a
// heap of its own, with exactly one slot in its kernel's slot heap
// keyed as the set's earliest event. Re-keying an event then touches the
// set's small heap and nothing of the kernel's, and the kernel re-keys
// the slot once per batch of changes: each re-key marks the set dirty,
// and the kernel restores every dirty set (see restore) before it next
// pops or peeks. A new event that is a clean set's earliest re-keys
// the slot at once. Keys are unique and minted exactly as Kernel.At and a
// re-key mint them, so the kernel pops the same event at every step as
// if all of them sat in one (at, prio) heap: the set changes host cost
// only.
//
// A set belongs to the kernel that made it, and to whichever LP class
// that kernel runs — like the FlowNet that owns it, so its class is per
// instance, not per type. All methods must be called from that
// kernel's simulation context.
//
//dpml:owner shared
type EventSet struct {
	k    *Kernel
	h    eventHeap
	slot Event // the set's slot-heap entry; index -1 while the set is empty
	// dirty marks the set as queued on k.dirty for restore. rekeys
	// counts the re-keys since the last restore; each is sifted at once
	// until they pass 1/64 of the set, when lazy stops sifting re-keys
	// and restore heapifies the whole set instead. A water-fill re-fits
	// most of a channel's flows and keeps them in their order, so a
	// heapify finds little to move while each sift against the stale
	// keys moves far: BenchmarkRescheduleBurst/10k runs about 1.5x
	// slower sifting every re-key, and about 1.3x slower at a 1/8
	// threshold. A large set with few re-keys must not pay O(n): its
	// 4k-set regime costs 0.3 µs a round sifting and 21 µs heapifying.
	// Both sides occur: allreduce-10k heapifies at every restore, and
	// the full-scale fig4 restores 7% of its sets by sifts alone.
	dirty  bool
	lazy   bool
	rekeys int
}

// NewEventSet returns an empty event set whose events fire on k.
func (k *Kernel) NewEventSet() *EventSet {
	s := &EventSet{k: k}
	s.slot = Event{index: -1, set: s}
	return s
}

// At schedules fn to run when the virtual clock reaches t, on the
// current LP, exactly as Kernel.At does, and keeps the event in the set
// so it can be rescheduled. Scheduling in the past is clamped to Now.
//
// Event objects are pooled: a handle is valid until the event fires,
// after which the object may back a different scheduled event. Holders
// must drop their reference once the callback has run (as the flow
// scheduler does by nil-ing its handle inside the callback).
func (s *EventSet) At(t Time, fn func()) *Event {
	k := s.k
	if t < k.now {
		t = k.now
	}
	e := k.newEvent(t, k.nextPrio(k.curLP), k.curLP, fn)
	s.h.push(e)
	if e.index == 0 && !s.dirty {
		// A clean set's slot holds its earliest event, which e now is.
		s.seat()
	}
	return e
}

// Reschedule moves a pending event of the set to fire at t instead,
// keeping its callback. The event is re-keyed with the current LP's
// next creation counter, so it orders against every other event exactly
// as a fresh event scheduled with At would, but it keeps its place in
// the set: the set's heap is updated in place and no tombstone is left
// behind.
//
// e must be pending in s: returned by s.At and not yet fired.
func (s *EventSet) Reschedule(e *Event, t Time) {
	if e == nil || e.index < 0 || int(e.index) >= len(s.h.a) || s.h.a[e.index].ev != e {
		panic("sim: EventSet.Reschedule of an event not pending in the set")
	}
	k := s.k
	if t < k.now {
		t = k.now
	}
	raw := k.nextPrio(k.curLP)
	e.raw = raw
	if k.explore != nil {
		e.born = k.fireSeq // re-keying is a re-creation for tie purposes
	}
	prio := k.permKey(t, raw, e.exec)
	if !s.lazy {
		s.rekeys++
		s.lazy = 64*s.rekeys > len(s.h.a)
	}
	if s.lazy {
		s.h.rekey(e, t, prio)
	} else {
		s.h.update(e, t, prio)
	}
	s.markDirty()
}

// markDirty queues s for restore before the kernel's next pop or peek.
func (s *EventSet) markDirty() {
	if !s.dirty {
		s.dirty = true
		s.k.dirty = append(s.k.dirty, s)
	}
}

// restore brings the set's heap back in order, heapifying it when the
// re-keys since the last restore went lazy, and re-keys the set's
// slot to its earliest event. A dirty set is never empty:
// events leave a set only when the kernel pops them, which restores
// every set first.
func (s *EventSet) restore() {
	if s.lazy {
		s.h.heapify()
		s.lazy = false
	}
	s.dirty, s.rekeys = false, 0
	s.seat()
}

// seat keys the set's slot as the set's earliest event,
// pushing the slot if the set was empty.
func (s *EventSet) seat() {
	top := s.h.a[0]
	switch {
	case s.slot.index < 0:
		s.slot.at, s.slot.prio = top.at, top.prio
		s.k.events.push(&s.slot)
	case s.slot.at != top.at || s.slot.prio != top.prio:
		s.k.events.update(&s.slot, top.at, top.prio)
	}
}

// pop removes and returns the set's earliest event, whose key its slot
// holds at the slot heap's top, and re-keys the slot to the next one,
// which can only sift it down, or drops it when the set is empty.
func (s *EventSet) pop() *Event {
	e := s.h.pop()
	if len(s.h.a) == 0 {
		s.k.events.pop()
	} else {
		top := s.h.a[0]
		s.k.events.rekey(&s.slot, top.at, top.prio)
		s.k.events.siftDown(0)
	}
	return e
}
