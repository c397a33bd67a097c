package sim

// Event is a scheduled callback in virtual time. Events are created with
// Kernel.At and may be rescheduled before they fire. The callback runs in
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
	index int32 // current heap slot; -1 once popped
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
	i := int(e.index)
	e.at, e.prio = at, prio
	h.a[i].at, h.a[i].prio = at, prio
	if !h.siftUp(i) {
		h.siftDown(i)
	}
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

// peekAt returns the at of the earliest pending event without removing
// it.
func (h *eventHeap) peekAt() (Time, bool) {
	if len(h.a) == 0 {
		return 0, false
	}
	return h.a[0].at, true
}
