package mpi

import (
	"fmt"

	"dpml/internal/sim"
	"dpml/internal/trace"
)

// Request tracks a non-blocking operation. Requests belong to the rank
// that created them and may only be waited on by that rank (MPI
// semantics), so all state is owned by that rank's node LP. They are
// drawn from the rank's free list (see pool.go), and Wait returns the
// request it completes to that list, as MPI_Wait frees its request: a
// request is waited on exactly once, and its handle is dead after.
//
//dpml:owner node
type Request struct {
	owner      *Rank
	kind       string // "send" or "recv", for diagnostics
	key        msgKey
	vec        *Vector
	done       bool
	start      sim.Time
	peer       int    // global rank of the other side (-1 if unknown)
	completion func() // complete, built once per object
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// complete marks the request done and wakes the owner if it is waiting on
// any of its requests. Safe to call from event callbacks.
func (q *Request) complete() {
	if q.done {
		panic(fmt.Sprintf("mpi: double completion of %s request %+v", q.kind, q.key))
	}
	q.done = true
	if rec := q.owner.w.cfg.Trace; rec != nil {
		kind, label := trace.KindSend, fmt.Sprintf("->%d", q.peer)
		if q.kind == "recv" {
			kind, label = trace.KindRecv, fmt.Sprintf("<-%d", q.peer)
		}
		rec.Add(trace.Event{
			Rank: q.owner.rank, Kind: kind, Label: label,
			Start: q.start, End: q.owner.k.Now(), Bytes: q.vec.Bytes(),
		})
	}
	q.owner.x.anyDone.FireAll()
}

// Wait blocks the owning rank until the request completes, then frees
// it. Waiting on a freed request panics. Wait is its arm form, armWait,
// plus Park.
func (r *Rank) Wait(q *Request) {
	if !r.armWait(q) {
		r.proc.Park()
	}
	r.releaseRequest(q)
}

// armWait is Wait's arm form: it reports true when q is already done
// and otherwise arms the rank's proc to park until it is. Either way
// the caller frees q with releaseRequest once it is done.
func (r *Rank) armWait(q *Request) bool {
	switch q.owner {
	case r:
	case nil:
		panic(fmt.Sprintf("mpi: Wait on a freed %s request %+v", q.kind, q.key))
	default:
		panic("mpi: Wait on another rank's request")
	}
	return r.x.anyDone.ArmWaitUntil(r.proc, (*waitReason)(q))
}

// waitReason is Wait's condition. The scheduler checks Ready on every
// wakeup; String is formatted only when a report is built.
type waitReason Request

func (w *waitReason) Ready() bool { return w.done }

func (w *waitReason) String() string { return fmt.Sprintf("wait %s %+v", w.kind, w.key) }

// WaitAll blocks until every request completes, and frees each.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}
