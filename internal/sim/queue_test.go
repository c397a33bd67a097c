package sim

import "fmt"

// queue is an unbounded FIFO mailbox carrying values of type T between
// procs, for tests that need message passing. send never blocks; recv
// parks until a value is available.
type queue[T any] struct {
	name  string
	items []T
	sig   Signal
}

// newQueue returns an empty queue labeled name for deadlock reports.
func newQueue[T any](name string) *queue[T] {
	return &queue[T]{name: name}
}

// send enqueues v and wakes one receiver if any is parked. Callable from
// procs and event callbacks.
func (q *queue[T]) send(v T) {
	q.items = append(q.items, v)
	q.sig.Fire()
}

// recv dequeues the oldest value, parking the proc while the queue is
// empty.
func (q *queue[T]) recv(p *Proc) T {
	for len(q.items) == 0 {
		q.sig.Wait(p, fmt.Sprintf("queue %q recv", q.name))
	}
	v, _ := q.tryRecv()
	return v
}

// tryRecv dequeues without blocking, reporting whether a value was
// available.
func (q *queue[T]) tryRecv() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return v, true
}
