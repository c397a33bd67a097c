package core

import (
	"dpml/internal/mpi"
	"dpml/internal/trace"
)

// dualRoot implements Träff's doubly-pipelined dual-root reduction-to-all
// (arXiv:2109.12626) on the world communicator: the vector is split into
// two halves, each reduced up its own binary tree — tree 0 is the heap
// tree rooted at rank 0, tree 1 its mirror rooted at rank p-1, so every
// rank's degree across both trees stays balanced — and broadcast back
// down the same tree. Each half is further split into `segments`
// pipelined blocks; a root starts broadcasting block s as soon as it is
// reduced, while blocks s+1.. are still flowing upward, which is what
// makes the scheme "doubly" pipelined: both halves and both directions
// are active at once.
//
// Every receive (upward from children, downward from the parent) is
// pre-posted non-blocking and every send is non-blocking, so no rank
// ever blocks on a peer's posting order — the design is trivially
// deadlock-free, and the blocks of both trees genuinely overlap in
// flight. Reductions still fold in fixed (segment, tree, child) order,
// so results are schedule-independent.
//
// Downward receives land in the same views the upward pass reduced
// into: safe, because a block's downward message is causally after the
// root reduced it, which is after this rank's last write to the view.
func (e *Engine) dualRoot(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector, segments int) {
	c := e.W.CommWorld()
	me := c.RankOf(r)
	p := c.Size()
	rec := e.W.Tracer()
	if p == 1 {
		// Still record the canonical phase pair so the tiling invariant
		// sees the same shape at every scale.
		rec.Phase(r.Rank(), trace.PhaseTreeReduce, r.Now())
		rec.Phase(r.Rank(), trace.PhaseTreeBcast, r.Now())
		return
	}
	base := c.CollTagBase(r)

	// Halves: tree 0 reduces [0, mid), tree 1 reduces [mid, n). A
	// too-short vector runs single-tree (half 1 empty).
	n := vec.Len()
	mid := (n + 1) / 2
	halves := [2]*mpi.Vector{vec.Slice(0, mid), vec.Slice(mid, n)}
	trees := 2
	if halves[1].Len() == 0 {
		trees = 1
	}

	segs := dualRootSegments(segments, halves[0].Bytes(), halves[0].Len())

	// Per-tree topology. Tree 0 is the array heap: parent(i) = (i-1)/2,
	// children 2i+1, 2i+2. Tree 1 relabels rank i as p-1-i, mirroring
	// the heap so the leaves of one tree are interior in the other.
	type treeTopo struct {
		parent   int // global comm rank of the parent (-1 at the root)
		children []int
	}
	topo := make([]treeTopo, trees)
	for t := 0; t < trees; t++ {
		rel := me
		if t == 1 {
			rel = p - 1 - me
		}
		unrel := func(i int) int {
			if t == 1 {
				return p - 1 - i
			}
			return i
		}
		tt := treeTopo{parent: -1}
		if rel > 0 {
			tt.parent = unrel((rel - 1) / 2)
		}
		for _, ch := range []int{2*rel + 1, 2*rel + 2} {
			if ch < p {
				tt.children = append(tt.children, unrel(ch))
			}
		}
		topo[t] = tt
	}

	// Per-(tree, segment) views. Tag layout: two tags per (segment,
	// tree) step — up and down — inside the collective's window; segs
	// is clamped far below the window size.
	segViews := make([][]*mpi.Vector, trees)
	for t := 0; t < trees; t++ {
		cnts, displs := mpi.BlockPartition(halves[t].Len(), segs)
		segViews[t] = make([]*mpi.Vector, segs)
		for s := 0; s < segs; s++ {
			segViews[t][s] = halves[t].Slice(displs[s], displs[s]+cnts[s])
		}
	}
	upTag := func(t, s int) int { return base + (s*2+t)*2 }
	downTag := func(t, s int) int { return base + (s*2+t)*2 + 1 }

	// Pre-post every receive: upward blocks from each child into
	// per-(tree, segment, child) buffers, downward blocks from the
	// parent straight into the final views.
	upRecv := make([][][]*mpi.Request, trees)
	upBuf := make([][][]*mpi.Vector, trees)
	downRecv := make([][]*mpi.Request, trees)
	for t := 0; t < trees; t++ {
		upRecv[t] = make([][]*mpi.Request, segs)
		upBuf[t] = make([][]*mpi.Vector, segs)
		downRecv[t] = make([]*mpi.Request, segs)
		for s := 0; s < segs; s++ {
			view := segViews[t][s]
			if view.Len() == 0 {
				continue
			}
			upRecv[t][s] = make([]*mpi.Request, len(topo[t].children))
			upBuf[t][s] = make([]*mpi.Vector, len(topo[t].children))
			for ci, ch := range topo[t].children {
				buf := view.Clone()
				upBuf[t][s][ci] = buf
				upRecv[t][s][ci] = r.Irecv(c, ch, upTag(t, s), buf)
			}
			if topo[t].parent >= 0 {
				downRecv[t][s] = r.Irecv(c, topo[t].parent, downTag(t, s), view)
			}
		}
	}

	// Upward sweep: fold each block toward its root in fixed
	// lexicographic (segment, tree) order; sends are non-blocking, so
	// later blocks' receives overlap earlier blocks' transfers. Roots
	// launch a block's downward broadcast the moment it completes.
	rec.Phase(r.Rank(), trace.PhaseTreeReduce, r.Now())
	var sends []*mpi.Request
	for s := 0; s < segs; s++ {
		for t := 0; t < trees; t++ {
			view := segViews[t][s]
			if view.Len() == 0 {
				continue
			}
			for ci := range topo[t].children {
				r.Wait(upRecv[t][s][ci])
				r.Reduce(op, view, upBuf[t][s][ci])
			}
			if topo[t].parent >= 0 {
				sends = append(sends, r.Isend(c, topo[t].parent, upTag(t, s), view))
			} else {
				for _, ch := range topo[t].children {
					sends = append(sends, r.Isend(c, ch, downTag(t, s), view))
				}
			}
		}
	}

	// Downward sweep: wait for each finished block from the parent and
	// forward it to the children.
	rec.Phase(r.Rank(), trace.PhaseTreeBcast, r.Now())
	for s := 0; s < segs; s++ {
		for t := 0; t < trees; t++ {
			if segViews[t][s].Len() == 0 || topo[t].parent < 0 {
				continue
			}
			r.Wait(downRecv[t][s])
			for _, ch := range topo[t].children {
				sends = append(sends, r.Isend(c, ch, downTag(t, s), segViews[t][s]))
			}
		}
	}
	r.WaitAll(sends...)
}

// dualRootSegments picks the pipelining depth for one half: explicit
// when requested, otherwise deep enough that each block sits near the
// eager/small-message regime (one block per 8KB), like the proposed
// selector's size-driven DPML-Pipelined depth. Always clamped to
// [1, halfLen] so no block degenerates to zero elements.
func dualRootSegments(requested, halfBytes, halfLen int) int {
	s := requested
	if s <= 0 {
		s = halfBytes / (8 << 10)
		if s > 64 {
			s = 64
		}
	}
	if s > halfLen {
		s = halfLen
	}
	if s < 1 {
		s = 1
	}
	return s
}
