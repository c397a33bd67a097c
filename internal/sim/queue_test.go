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

// send enqueues v and wakes the parked receivers. Callable from procs
// and event callbacks.
func (q *queue[T]) send(v T) {
	q.items = append(q.items, v)
	q.sig.FireAll()
}

// recv dequeues the oldest value, parking the proc while the queue is
// empty.
func (q *queue[T]) recv(p *Proc) T {
	q.sig.WaitUntil(p, q)
	v, _ := q.tryRecv()
	return v
}

// Ready and String make the queue the Cond its receivers wait on.
func (q *queue[T]) Ready() bool    { return len(q.items) > 0 }
func (q *queue[T]) String() string { return fmt.Sprintf("queue %q recv", q.name) }

// gate is a Cond that holds once its flag is set: procs wait on a
// Signal until a test sets open and fires it.
type gate struct {
	open *bool
	why  string
}

func (g gate) Ready() bool    { return *g.open }
func (g gate) String() string { return g.why }

// block parks p on why until something calls p.Wake(), or forever.
func block(p *Proc, why string) {
	p.ArmWake(why)
	p.Park()
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
