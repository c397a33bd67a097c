package core

import (
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

// shmOp is one rank's part in the shared-memory operations of its node:
// the phases the DPML and SHArP allreduces are built from. Segment j
// belongs to leader j (for the SHArP designs, to local rank j); each
// phase charges its own copy and fold costs. A phase is a step machine
// (sim.Proc.RunSteps): the rank parks once per phase, and the kernel
// runs the phase's copies, folds and waits in its place. A rank keeps
// one shmOp for all its operations, so a phase allocates nothing.
type shmOp struct {
	e    *Engine
	r    *mpi.Rank
	sh   *shmseg.Op // the operation in progress, from newShmOp to done
	segs int
	n    int // elements, block-partitioned across the segments (see part)

	// The phase in progress. It works through segments j..end-1 (fold:
	// segment j's slots i..), and pc says where the current one resumes.
	run   func() bool // o.step, built once
	phase uint8
	pc    uint8
	whole bool        // each segment carries vec itself, not its block
	same  bool        // fold: count only same-socket flag polls (see gatherSync)
	vec   *mpi.Vector // deposit, collect: the rank's buffer
	cur   *mpi.Vector // deposit: the partition copied in; collect: the one copied into
	res   *mpi.Vector // collect: the result copied out
	j     int
	end   int
	// fold
	op    *mpi.Op
	want  int
	slots []*mpi.Vector
	i     int
	acc   *mpi.Vector
}

// The phases a shmOp's step runs.
const (
	phaseDeposit uint8 = iota
	phaseFold
	phaseCollect
)

// newShmOp opens the calling rank's next operation on its node's region
// with segs segments over an n-element payload (see shmseg.Region.Open).
func (e *Engine) newShmOp(r *mpi.Rank, segs, n int) *shmOp {
	o := e.ops[r.Rank()]
	if o == nil {
		o = &shmOp{e: e, r: r}
		o.run = o.step
		e.ops[r.Rank()] = o
	}
	o.sh = e.regions[r.Place().Node].Open(r.Place().LocalRank, segs)
	o.segs, o.n = segs, n
	return o
}

// part returns the view of vec that segment j carries, block j of
// mpi.BlockPartition(n, segs), through this rank's view header in
// segment j: it stays valid until the operation drains (see
// shmseg.Op.View).
func (o *shmOp) part(vec *mpi.Vector, j int) *mpi.Vector {
	lo, hi := mpi.Block(o.n, o.segs, j)
	return o.sh.View(j, o.r.Place().LocalRank, vec, lo, hi)
}

// carry returns what segment j carries of the phase's buffer.
func (o *shmOp) carry(j int) *mpi.Vector {
	if o.whole {
		return o.vec
	}
	return o.part(o.vec, j)
}

// cross reports whether a copy to or from segment j crosses sockets.
func (o *shmOp) cross(j int) bool { return o.r.Place().Socket != o.e.leaderSocket[j] }

// runPhase runs phase over segments [j, end) of vec as the rank's step
// machine and returns when it is done.
func (o *shmOp) runPhase(phase uint8, vec *mpi.Vector, whole bool, j, end int) {
	o.phase, o.pc, o.vec, o.whole, o.j, o.end = phase, 0, vec, whole, j, end
	o.r.Proc().RunSteps(o.run)
	o.vec, o.cur, o.res = nil, nil, nil
}

// step runs the phase in progress up to its next wait.
func (o *shmOp) step() bool {
	switch o.phase {
	case phaseDeposit:
		return o.depositStep()
	case phaseFold:
		return o.foldStep()
	default:
		return o.collectStep()
	}
}

// deposit is Phase 1: partition j of vec goes to segment j, for every j.
func (o *shmOp) deposit(vec *mpi.Vector) {
	o.runPhase(phaseDeposit, vec, false, 0, o.segs)
}

// put deposits v whole into segment j.
func (o *shmOp) put(j int, v *mpi.Vector) { o.runPhase(phaseDeposit, v, true, j, j+1) }

// depositStep charges the copy of each remaining partition into this
// rank's slot of its segment and deposits the partition itself: the
// leader reads it in place, so it must not be written until the
// segment's result is published (see package shmseg).
func (o *shmOp) depositStep() bool {
	for ; o.j < o.end; o.j++ {
		if o.pc == 0 {
			o.cur = o.carry(o.j)
			o.pc = 1
			o.r.ArmMemCopy(o.cross(o.j), o.cur.Bytes())
			return false
		}
		o.pc = 0
		o.r.EndWork()
		o.sh.Put(o.j, o.r.Place().LocalRank, o.cur)
	}
	return true
}

// fold is Phase 2 for the leader of segment j: it waits until want local
// ranks have put into segment j, charges the flag polls (see
// gatherSync), and returns segment j's accumulator holding their
// reduction in local-rank order. The accumulator stays valid until the
// operation drains, which outlasts every reader of the result published
// from it.
func (o *shmOp) fold(op *mpi.Op, j, want int, sameSocketOnly bool) *mpi.Vector {
	o.op, o.want, o.same, o.i, o.acc = op, want, sameSocketOnly, 0, nil
	o.runPhase(phaseFold, nil, false, j, j+1)
	acc := o.acc
	o.op, o.slots, o.acc = nil, nil, nil
	return acc
}

// foldStep runs fold: the gather wait, the flag polls, then one
// Compute per slot after the first, which seeds the accumulator.
func (o *shmOp) foldStep() bool {
	p := o.r.Proc()
	switch o.pc {
	case 0:
		slots, ok := o.sh.ArmGather(p, o.j, o.want)
		o.slots, o.pc = slots, 1
		if !ok {
			return false
		}
		fallthrough
	case 1:
		o.pc = 2
		if d := o.e.gatherSync(o.j, o.same); d > 0 {
			p.ArmSleep(d)
			return false
		}
	}
	for ; o.i < len(o.slots); o.i++ {
		s := o.slots[o.i]
		switch {
		case s == nil:
			continue
		case o.acc == nil:
			o.acc = o.sh.Accumulator(o.j, s)
			continue
		case o.pc == 2:
			o.pc = 3
			if !o.r.ArmCompute(o.acc.Bytes()) {
				return false
			}
		}
		o.pc = 2
		o.r.EndWork()
		o.op.Apply(o.acc, s)
	}
	return true
}

// publish stores the leader's result for segment j.
func (o *shmOp) publish(j int, res *mpi.Vector) { o.sh.Publish(j, res) }

// collect is Phase 4: segment j's result is copied into partition j of
// vec, for every j.
func (o *shmOp) collect(vec *mpi.Vector) {
	o.runPhase(phaseCollect, vec, false, 0, o.segs)
}

// get waits for segment j's result and copies it into dst.
func (o *shmOp) get(j int, dst *mpi.Vector) { o.runPhase(phaseCollect, dst, true, j, j+1) }

// collectStep waits for each remaining segment's result and copies it
// into the rank's partition.
func (o *shmOp) collectStep() bool {
	for ; o.j < o.end; o.j++ {
		switch o.pc {
		case 0:
			o.cur = o.carry(o.j)
			o.pc = 1
			fallthrough
		case 1:
			if o.res = o.sh.ArmResult(o.r.Proc(), o.j); o.res == nil {
				return false
			}
			o.pc = 2
			o.r.ArmMemCopy(o.cross(o.j), o.res.Bytes())
			return false
		}
		o.pc = 0
		o.r.EndWork()
		o.cur.CopyFrom(o.res)
	}
	return true
}

// done releases this rank's part in the operation; every local rank must
// call it once.
func (o *shmOp) done() {
	o.sh.Done()
	o.sh = nil
}
