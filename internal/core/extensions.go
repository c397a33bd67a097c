package core

import (
	"fmt"

	"dpml/internal/mpi"
	"dpml/internal/trace"
)

// This file implements the paper's stated future work ("we would like to
// explore the possibilities of exploiting DPML approach for other
// blocking and non-blocking collectives as well"): data-partitioned
// multi-leader Reduce and Bcast.

// Reduce performs an MPI_Reduce with the DPML structure: partitions are
// gathered and combined by the node's leaders (Phases 1-2), each leader
// runs an inter-node reduction rooted at root's node (Phase 3), and on
// the root node the fully reduced partitions are copied into root's
// buffer (Phase 4). Only DPML specs are supported; on return only
// root's vec holds the result.
func (e *Engine) Reduce(r *mpi.Rank, s Spec, op *mpi.Op, root int, vec *mpi.Vector) error {
	if err := e.checkDPML("Reduce", s); err != nil {
		return err
	}
	if err := checkOp(op, vec); err != nil {
		return err
	}
	if root < 0 || root >= e.W.Job.NumProcs() {
		return fmt.Errorf("core: Reduce root %d out of range", root)
	}
	rootNode := e.W.Job.Place(root).Node
	rec := e.W.Tracer()
	coll := e.beginCollective(r, "reduce:", s, vec.Bytes())
	defer func() { coll.End(r.Now()) }()

	if e.W.Job.PPN == 1 {
		rec.Phase(r.Rank(), trace.PhaseInter, r.Now())
		r.ReduceColl(e.leaderComms[0], rootNode, op, vec)
		return nil
	}

	// Phases 1-2: identical to allreduce, except that every rank but
	// root returns without waiting for the leaders, so each deposits a
	// copy its leaders can fold after the caller has reused vec.
	o := e.newShmOp(r, s.Leaders, vec.Len())
	o.snapshot = true
	rec.Phase(r.Rank(), trace.PhaseCopy, r.Now())
	o.deposit(vec)
	pl := r.Place()
	if j := pl.LocalRank; j < s.Leaders {
		rec.Phase(r.Rank(), trace.PhaseReduce, r.Now())
		acc := o.fold(op, j, e.W.Job.PPN, false)
		// Phase 3: inter-node reduce rooted at root's node.
		rec.Phase(r.Rank(), trace.PhaseInter, r.Now())
		r.ReduceColl(e.leaderComms[j], rootNode, op, acc)
		if pl.Node == rootNode {
			o.publish(j, acc)
		}
	}
	// Phase 4: only root copies the result out; everyone releases the
	// operation.
	rec.Phase(r.Rank(), trace.PhaseBcast, r.Now())
	if r.Rank() == root {
		o.collect(vec)
	}
	o.done()
	return nil
}

// Bcast broadcasts root's vec with the DPML structure run in reverse:
// root scatters its partitions to the local leaders through shared
// memory, each leader broadcasts its partition to the same-index leaders
// of other nodes concurrently, and every rank copies the partitions out
// — the "direct shared memory copy ... reduces the number of steps from
// ceil(lg ppn) to number of leaders" observation of Phase 4, applied as a
// standalone collective.
func (e *Engine) Bcast(r *mpi.Rank, s Spec, root int, vec *mpi.Vector) error {
	if err := e.checkDPML("Bcast", s); err != nil {
		return err
	}
	if root < 0 || root >= e.W.Job.NumProcs() {
		return fmt.Errorf("core: Bcast root %d out of range", root)
	}
	rootPl := e.W.Job.Place(root)
	rec := e.W.Tracer()
	coll := e.beginCollective(r, "bcast:", s, vec.Bytes())
	defer func() { coll.End(r.Now()) }()

	if e.W.Job.PPN == 1 {
		rec.Phase(r.Rank(), trace.PhaseInter, r.Now())
		r.Bcast(e.leaderComms[0], rootPl.Node, vec)
		return nil
	}

	o := e.newShmOp(r, s.Leaders, vec.Len())
	// Root scatters its partitions into shared memory.
	if r.Rank() == root {
		rec.Phase(r.Rank(), trace.PhaseCopy, r.Now())
		o.deposit(vec)
	}
	pl := r.Place()
	if j := pl.LocalRank; j < s.Leaders {
		rec.Phase(r.Rank(), trace.PhaseInter, r.Now())
		var src *mpi.Vector
		if pl.Node == rootPl.Node {
			src = o.gather(j, 1)[rootPl.LocalRank]
		} else {
			src = o.part(vec, j)
		}
		part := o.acc(j, src)
		// Concurrent inter-node broadcasts, one per leader.
		r.Bcast(e.leaderComms[j], rootPl.Node, part)
		o.publish(j, part)
	}
	rec.Phase(r.Rank(), trace.PhaseBcast, r.Now())
	o.collect(vec)
	o.done()
	return nil
}
