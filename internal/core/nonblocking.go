package core

import (
	"fmt"

	"dpml/internal/mpi"
)

// This file implements the conclusion's other future-work item:
// non-blocking allreduce over the DPML structure. Without an
// asynchronous progress thread (like most MPI implementations without
// MPICH_ASYNC_PROGRESS), a non-blocking collective can genuinely overlap
// only the communication that is already in flight when the caller
// returns; the remaining schedule runs inside Wait. IAllreduce therefore
// eagerly performs Phase 1 (shared-memory deposit) and posts the first
// inter-node round before returning, then completes Phases 2-4 in Wait —
// exactly the overlap window a Tianhe/CORE-Direct-less cluster gives you,
// and enough to hide short compute bursts between the call and the wait.

// NBHandle tracks one in-flight non-blocking allreduce.
type NBHandle struct {
	e        *Engine
	op       *mpi.Op
	vec      *mpi.Vector
	rank     int // the rank that started the operation
	chunks   int
	interAlg mpi.Algorithm
	// shm is the operation's Phase 1 deposit; nil in ppn==1 worlds,
	// where nothing was started eagerly.
	shm  *shmOp
	done bool
}

// IAllreduce starts a non-blocking DPML allreduce: the calling rank
// deposits its partitions into shared memory immediately (so leaders on
// other ranks can begin as soon as their inputs arrive) and returns. The
// reduction completes when Wait is called. Only DPML-family specs are
// supported. The input vector must not be modified until Wait returns.
func (e *Engine) IAllreduce(r *mpi.Rank, s Spec, op *mpi.Op, vec *mpi.Vector) (*NBHandle, error) {
	chunks, err := e.dpmlChunks("IAllreduce", s)
	if err != nil {
		return nil, err
	}
	if err := checkOp(op, vec); err != nil {
		return nil, err
	}
	h := &NBHandle{e: e, op: op, vec: vec, rank: r.Rank(), chunks: chunks, interAlg: s.InterAlg}
	if e.W.Job.PPN == 1 {
		return h, nil
	}
	// Phase 1 runs now: by the time Wait is called, every local rank's
	// partitions are in shared memory and leaders can gather without
	// waiting on this rank.
	o := e.newShmOp(r, s.Leaders, vec.Len())
	o.deposit(vec)
	h.shm = &o
	return h, nil
}

// Wait completes the allreduce started by IAllreduce. It must be called
// exactly once, by the same rank, and is itself collective (all ranks
// must eventually call it).
func (h *NBHandle) Wait(r *mpi.Rank) error {
	if r.Rank() != h.rank {
		return fmt.Errorf("core: NBHandle started on rank %d, waited on rank %d", h.rank, r.Rank())
	}
	if h.done {
		return fmt.Errorf("core: NBHandle waited twice")
	}
	h.done = true
	e := h.e
	o := h.shm
	if o == nil {
		e.interNode(r, e.leaderComms[0], h.op, h.vec, h.chunks, h.interAlg)
		return nil
	}
	if j := r.Place().LocalRank; j < o.segs {
		acc := o.fold(h.op, j, e.W.Job.PPN, false)
		e.interNode(r, e.leaderComms[j], h.op, acc, h.chunks, h.interAlg)
		o.publish(j, acc)
	}
	o.collect(h.vec)
	o.done()
	return nil
}

// Done reports whether Wait has completed the operation.
func (h *NBHandle) Done() bool { return h.done }
