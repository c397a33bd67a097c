package core

import (
	"sort"

	"dpml/internal/mpi"
)

// Proficz's process-arrival-pattern-aware allreduce algorithms
// (arXiv:1804.05349). Production collectives assume all ranks enter the
// operation together; under imbalanced arrival (stragglers) that
// assumption costs dearly, because symmetric algorithms serialize every
// rank behind the latest arriver. These designs instead read a
// per-rank arrival prediction — here, the installed fault plan's
// straggler windows, a deterministic oracle identical on every rank —
// and reorder the reduction so the work of the early ranks overlaps
// with the stragglers' delays.

// arrivalOrder returns w's ranks sorted by predicted arrival (earliest
// first, rank id breaking ties) plus each rank's lateness score. The
// score for a rank sums (Factor-1)-weighted straggler windows from the
// world's fault plan, which must be installed; open-ended windows
// (End == 0) count with unit duration so permanent stragglers sort after
// windowed ones of equal factor. A plan without stragglers yields
// all-zero scores and rank order.
func arrivalOrder(w *mpi.World) (order []int, score []float64) {
	p := w.Job.NumProcs()
	score = make([]float64, p)
	for _, s := range w.FaultPlan().Stragglers {
		dur := 1.0
		if s.End > s.Start {
			dur = float64(s.End.Sub(s.Start)) / 1e9
		}
		score[s.Rank] += (s.Factor - 1) * dur
	}
	order = make([]int, p)
	for i := range order {
		order[i] = i
	}
	// Stable, so equal scores keep rank order.
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
	return order, score
}

// arrivalComms builds the arrival-aware designs' two communicators, once
// per engine: every rank in predicted arrival order (comm rank = arrival
// position), and its early set, the prefix of ranks predicted on time.
// Scores are sums of (Factor-1)*dur terms with Factor >= 1, so a
// punctual rank is exactly one whose score is not positive; if the plan
// marks everyone late, everyone counts as early. With no straggler in
// the plan both are the world communicator.
func arrivalComms(w *mpi.World) (arrival, early *mpi.Comm) {
	plan := w.FaultPlan()
	if plan == nil || len(plan.Stragglers) == 0 {
		return w.CommWorld(), w.CommWorld()
	}
	order, score := arrivalOrder(w)
	cut := 0
	for cut < len(order) && !(score[order[cut]] > 0) {
		cut++
	}
	arrival = w.NewComm(order)
	if cut == 0 || cut == len(order) {
		return arrival, arrival
	}
	return arrival, w.NewComm(order[:cut])
}

// papBlocks picks the chain pipelining depth: enough blocks that
// several hops are in flight at once, never more than the vector has
// elements, and small enough that per-block tags stay far inside the
// collective tag window.
func papBlocks(n int) int {
	b := 8
	if b > n {
		b = n
	}
	if b < 1 {
		b = 1
	}
	return b
}

// papSorted is the sorted linear tree: a chain reduction in predicted
// arrival order — each rank receives the running partial from its
// predecessor, folds in its own vector, and forwards — so the first
// p-2 hops complete while the latest arriver is still delayed, leaving
// only one hop plus the broadcast on its critical path. The chain is
// pipelined: the vector is split into blocks, each forwarded with a
// non-blocking send as soon as it is folded, so successive hops overlap
// block-wise instead of serializing the whole vector per hop (Proficz
// pipelines the linear tree the same way). The broadcast runs over the
// arrival-ordered communicator rooted at the last arriver. Chain order
// differs from rank order, which is safe here because every predefined
// op is associative and commutative (and the verification data is
// exact under any combining order).
func (e *Engine) papSorted(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector) {
	pc := e.arrival
	p := pc.Size()
	if p == 1 {
		return
	}
	me := pc.RankOf(r)
	base := pc.CollTagBase(r)

	blocks := papBlocks(vec.Len())
	cnts, displs := mpi.BlockPartition(vec.Len(), blocks)
	views := make([]*mpi.Vector, blocks)
	recvs := make([]*mpi.Request, blocks)
	bufs := make([]*mpi.Vector, blocks)
	for b := 0; b < blocks; b++ {
		views[b] = vec.Slice(displs[b], displs[b]+cnts[b])
		if me > 0 {
			bufs[b] = views[b].Clone()
			recvs[b] = r.Irecv(pc, me-1, mpi.WrapTag(base, b), bufs[b])
		}
	}
	var sends []*mpi.Request
	for b := 0; b < blocks; b++ {
		if me > 0 {
			r.Wait(recvs[b])
			r.Reduce(op, views[b], bufs[b])
		}
		if me < p-1 {
			sends = append(sends, r.Isend(pc, me+1, mpi.WrapTag(base, b), views[b]))
		}
	}
	r.WaitAll(sends...)
	// The latest arriver holds the total; broadcast consumes its own
	// tag window on the same communicator.
	r.Bcast(pc, p-1, vec)
}

// papRing is the parallel-ring variant: the predicted-on-time ranks run
// a bandwidth-optimal ring allreduce immediately (overlapping with the
// stragglers' delays), each straggler sends its vector to the earliest
// rank as it arrives, and the earliest rank folds the late
// contributions in and broadcasts the final result to everyone over
// the arrival-ordered communicator. The earliest rank pre-posts all
// straggler receives before entering the ring, so late arrivals
// transfer concurrently with the ring; the folds still run in fixed
// arrival order, keeping results schedule-independent. With no
// predicted stragglers the early set is everyone and the design
// degenerates to a flat ring.
func (e *Engine) papRing(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector) {
	pc, ec := e.arrival, e.early
	p, cut := pc.Size(), ec.Size()
	if p == 1 {
		return
	}
	me := pc.RankOf(r)
	base := pc.CollTagBase(r)

	var sends []*mpi.Request
	if me < cut {
		var recvs []*mpi.Request
		var bufs []*mpi.Vector
		if me == 0 {
			for i := cut; i < p; i++ {
				buf := vec.Clone()
				bufs = append(bufs, buf)
				recvs = append(recvs, r.Irecv(pc, i, mpi.WrapTag(base, i), buf))
			}
		}
		// Early ranks: ring among themselves while the stragglers are
		// still delayed.
		if cut > 1 {
			r.Allreduce(ec, mpi.AlgRing, op, vec)
		}
		// Earliest rank: fold in the stragglers' contributions in
		// predicted arrival order.
		for i, req := range recvs {
			r.Wait(req)
			r.Reduce(op, vec, bufs[i])
		}
	} else {
		// A straggler's send is consumed by the earliest rank before it
		// roots the broadcast, so the request is guaranteed complete by
		// the time the broadcast reaches back here; collect it and
		// settle after.
		sends = append(sends, r.Isend(pc, 0, mpi.WrapTag(base, me), vec))
	}

	// With no stragglers the ring already delivered the result to every
	// rank and the broadcast would only add latency; every rank reads
	// the same early set, so all agree on whether it runs.
	if cut < p {
		r.Bcast(pc, 0, vec)
	}
	r.WaitAll(sends...)
}
