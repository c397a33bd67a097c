package core

import (
	"fmt"

	"dpml/internal/mpi"
	"dpml/internal/shmseg"
	"dpml/internal/trace"
)

// dpml runs the four-phase Data Partitioning-based Multi-Leader allreduce
// of Section 4.1 with s.Leaders leaders (s.Chunks > 1 switches Phase 3 to
// the pipelined variant of Section 4.2):
//
//  1. Local copy to shared memory: every local rank splits its input into
//     l partitions and copies partition j into leader j's segment.
//  2. Intra-node reduction by leaders: leader j reduces the ppn gathered
//     copies of partition j (ppn-1 reductions of n/l bytes).
//  3. Inter-node allreduce by leaders: leader j allreduces its partially
//     reduced partition with the same-index leaders of the other nodes —
//     l concurrent inter-node collectives on n/l bytes each.
//  4. Local copy to individual processes: every local rank copies the l
//     fully reduced partitions back out of shared memory.
//
// Each phase is one trace span on the calling rank. Leaders' Phase 2
// includes the wait for the slowest local contributor, and Phase 4
// includes the wait for the leaders' results — the same accounting a
// profiled MPI implementation would report.
func (e *Engine) dpml(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector, s Spec) {
	rec := e.W.Tracer()
	if e.W.Job.PPN == 1 {
		// Single process per node: the shared-memory phases are
		// identity operations; go straight to the inter-node phase.
		rec.Phase(r.Rank(), trace.PhaseInter, r.Now())
		e.interNode(r, e.leaderComms[0], op, vec, s)
		return
	}
	o := e.newShmOp(r, s.Leaders, vec.Len())
	rec.Phase(r.Rank(), trace.PhaseCopy, r.Now())
	o.deposit(vec)
	if j := r.Place().LocalRank; j < s.Leaders {
		rec.Phase(r.Rank(), trace.PhaseReduce, r.Now())
		acc := o.fold(op, j, e.W.Job.PPN, false)
		rec.Phase(r.Rank(), trace.PhaseInter, r.Now())
		e.interNode(r, e.leaderComms[j], op, acc, s)
		o.publish(j, acc)
	}
	rec.Phase(r.Rank(), trace.PhaseBcast, r.Now())
	o.collect(vec)
	o.done()
}

// interNode runs Phase 3 of DPML spec s on the leader communicator: a
// flat algorithm (s.Alg, or chosen by size), or, when s.Chunks > 1,
// Rabenseifner on s.Chunks interleaved chunks.
func (e *Engine) interNode(r *mpi.Rank, c *mpi.Comm, op *mpi.Op, vec *mpi.Vector, s Spec) {
	if c.Size() == 1 {
		return
	}
	if s.Chunks > 1 {
		r.AllreducePipelined(c, op, vec, s.Chunks)
		return
	}
	alg := s.Alg
	if alg == "" {
		alg = autoAlg(vec.Bytes())
	}
	r.Allreduce(c, alg, op, vec)
}

// checkOp reports whether op can reduce vec's datatype, so a mismatch
// fails before any rank moves instead of inside the first fold.
func checkOp(op *mpi.Op, vec *mpi.Vector) error {
	if !op.Supports(vec.Type()) {
		return fmt.Errorf("core: op %s unsupported for %v", op.Name(), vec.Type())
	}
	return nil
}

// shmOp is one rank's part in one shared-memory operation of its node:
// the steps the DPML and SHArP allreduces are built from. Segment j
// belongs to leader j (for the SHArP designs, to local rank j); each step
// charges its own copy cost.
type shmOp struct {
	e    *Engine
	r    *mpi.Rank
	rg   *shmseg.Region
	seq  uint64
	segs int
	n    int // elements, block-partitioned across the segments (see part)
}

// newShmOp opens the calling rank's next operation on its node's region
// with segs segments over an n-element payload.
func (e *Engine) newShmOp(r *mpi.Rank, segs, n int) shmOp {
	return shmOp{e: e, r: r, rg: e.regions[r.Place().Node], seq: e.nextSeq(r), segs: segs, n: n}
}

// part returns the view of vec that segment j carries, block j of
// mpi.BlockPartition(n, segs), through this rank's view header in
// segment j: it stays valid until the operation drains (see
// shmseg.Region.View).
func (o *shmOp) part(vec *mpi.Vector, j int) *mpi.Vector {
	lo, hi := mpi.Block(o.n, o.segs, j)
	return o.rg.View(o.seq, o.segs, j, o.r.Place().LocalRank, vec, lo, hi)
}

// cross reports whether a copy to or from segment j crosses sockets.
func (o *shmOp) cross(j int) bool { return o.r.Place().Socket != o.e.leaderSocket[j] }

// put charges the copy of v into this rank's slot of segment j and
// deposits v itself: the leader reads it in place, so v must not be
// written until segment j's result is published (see package shmseg).
func (o *shmOp) put(j int, v *mpi.Vector) {
	o.r.MemCopy(o.cross(j), v.Bytes())
	o.rg.Put(o.seq, o.segs, j, o.r.Place().LocalRank, v)
}

// deposit is Phase 1: partition j of vec goes to segment j, for every j.
func (o *shmOp) deposit(vec *mpi.Vector) {
	for j := 0; j < o.segs; j++ {
		o.put(j, o.part(vec, j))
	}
}

// fold is Phase 2 for the leader of segment j: it waits until want local
// ranks have put into segment j, charges the flag polls (see
// gatherSync), and returns segment j's accumulator holding their
// reduction in local-rank order. The accumulator stays valid until the
// operation drains, which outlasts every reader of the result published
// from it.
func (o *shmOp) fold(op *mpi.Op, j, want int, sameSocketOnly bool) *mpi.Vector {
	slots := o.rg.GatherWait(o.r.Proc(), o.seq, o.segs, j, want)
	o.e.gatherSync(o.r, j, sameSocketOnly)
	var acc *mpi.Vector
	for _, s := range slots {
		switch {
		case s == nil:
		case acc == nil:
			acc = o.rg.Accumulator(o.seq, o.segs, j, s)
		default:
			o.r.Reduce(op, acc, s)
		}
	}
	return acc
}

// publish stores the leader's result for segment j.
func (o *shmOp) publish(j int, res *mpi.Vector) { o.rg.Publish(o.seq, o.segs, j, res) }

// get waits for segment j's result and copies it into dst.
func (o *shmOp) get(j int, dst *mpi.Vector) {
	res := o.rg.ResultWait(o.r.Proc(), o.seq, o.segs, j)
	o.r.MemCopy(o.cross(j), res.Bytes())
	dst.CopyFrom(res)
}

// collect is Phase 4: segment j's result is copied into partition j of
// vec, for every j.
func (o *shmOp) collect(vec *mpi.Vector) {
	for j := 0; j < o.segs; j++ {
		o.get(j, o.part(vec, j))
	}
}

// done releases this rank's part in the operation; every local rank must
// call it once.
func (o *shmOp) done() { o.rg.DoneCopy(o.seq) }
