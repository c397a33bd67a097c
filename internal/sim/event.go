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
	// prio breaks ties among events at the same instant. It packs the
	// creating LP (origin+1, so the watchdog's origin -1 sorts first) in
	// the top bits and that LP's private creation counter in the low 44
	// bits. Because every LP executes in the same order under any shard
	// count, the key (at, prio) is a globally consistent total order:
	// serial and sharded runs pop events identically.
	prio uint64
	// raw is the unperturbed (origin, counter) key. It equals prio
	// except under a schedule-exploration config (see explore.go), when
	// prio holds the perturbed heap key and raw feeds the schedule
	// digest so behaviorally identical schedules hash equal.
	raw uint64
	// born is the kernel's fire sequence number at the instant the event
	// entered the heap, maintained only under exploration. Tie recording
	// uses it to tell genuine commutation points (both events pending
	// together) from causal same-instant pairs (the second event created
	// by the first one's callback), whose inversion is a no-op; see
	// Kernel.noteFire.
	born  uint64
	exec  int32 // LP the callback runs as (kernel's curLP during fn)
	fn    func()
	index int32 // current slot in the kernel's or its set's heap; -1 once popped
	// set is non-nil only on an EventSet's slot: the one kernel-heap
	// entry that stands for the whole set, keyed as the set's earliest
	// event.
	set *EventSet
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
// re-key it in place.
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

// EventSet holds events that one owner re-keys often — the completion
// events of a FlowNet's flows, re-fitted after every water-fill — in a
// heap of its own, with exactly one slot in its kernel's heap keyed as
// the set's earliest event. Re-keying an event then touches the set's
// small heap and not the kernel's, and the kernel re-keys the slot once
// per batch of changes: each re-key marks the set dirty, and the
// kernel restores every dirty set (see restore) before it next pops or
// peeks its heap. A new event that is a clean set's earliest re-keys
// the slot at once. Keys are unique and minted exactly as Kernel.At and a
// re-key mint them, so the kernel pops the same event at every step as
// if all of them sat in its own heap: the set changes host cost only.
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
	slot Event // the set's kernel-heap entry; index -1 while the set is empty
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
// kernel-heap slot to its earliest event. A dirty set is never empty:
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

// seat keys the set's kernel-heap slot as the set's earliest event,
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
// holds at the kernel heap's top, and re-keys the slot to the next one,
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
