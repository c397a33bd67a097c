package core

import "dpml/internal/mpi"

// genAll implements the generalized allreduce of Kolmakov/Zhang
// (arXiv:2004.09362), parameterized by group size g: the p ranks form
// ceil(p/g) contiguous groups; each group ring-allreduces its members'
// vectors, the group leaders (first rank of each group) run a recursive-
// doubling allreduce over the group partials, and each leader broadcasts
// the final vector back into its group. The parameter interpolates
// between the two classic extremes exactly: g=1 makes every rank a
// leader (pure recursive doubling over p), g=p makes one group (pure
// ring over p, with no leader exchange or broadcast).
func (e *Engine) genAll(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector, g int) {
	c := e.W.CommWorld()
	me := c.RankOf(r)
	p := c.Size()
	if p == 1 {
		return
	}
	if g <= 0 {
		g = autoGroupSize(p, vec.Bytes())
	}
	if g > p {
		g = p
	}

	if g == p {
		// Single group: the intra-group ring already is the allreduce.
		r.Allreduce(c, mpi.AlgRing, op, vec)
		return
	}
	if g == 1 {
		// Singleton groups: only the leader exchange remains.
		r.Allreduce(c, mpi.AlgRecursiveDoubling, op, vec)
		return
	}

	gc := e.groupComms(g)
	group := gc.groups[me/g]

	// Phase A: intra-group ring allreduce — every member ends with the
	// group partial.
	if group.Size() > 1 {
		r.Allreduce(group, mpi.AlgRing, op, vec)
	}

	// Phase B: recursive doubling across the group leaders.
	if me%g == 0 {
		r.Allreduce(gc.leaders, mpi.AlgRecursiveDoubling, op, vec)
	}

	// Phase C: binomial broadcast of the final vector inside each group.
	if group.Size() > 1 {
		r.Bcast(group, 0, vec)
	}
}

// groupComms are genall's communicators for one group size g with
// 1 < g < p: each contiguous group of g ranks (the last one may be
// short), and the groups' leaders, their first ranks.
type groupComms struct {
	groups  []*mpi.Comm // by group index
	leaders *mpi.Comm
}

// groupComms returns the communicators for group size g, building them
// on the size's first use; explicit sizes and the size-dependent auto
// size can put several in one world.
func (e *Engine) groupComms(g int) *groupComms {
	e.mu.Lock()
	defer e.mu.Unlock()
	if gc, ok := e.groups[g]; ok {
		return gc
	}
	ranks := make([]int, e.W.Job.NumProcs())
	for i := range ranks {
		ranks[i] = i
	}
	gc := &groupComms{}
	var leaders []int
	for lo := 0; lo < len(ranks); lo += g {
		gc.groups = append(gc.groups, e.W.NewComm(ranks[lo:min(lo+g, len(ranks))]))
		leaders = append(leaders, lo)
	}
	gc.leaders = e.W.NewComm(leaders)
	e.groups[g] = gc
	return gc
}

// autoGroupSize picks g when the spec leaves it 0: small messages lean
// toward the recursive-doubling extreme (fewer, latency-bound rounds),
// large ones toward the ring extreme (bandwidth-optimal), and the
// middle takes balanced ~sqrt(p) groups.
func autoGroupSize(p, bytes int) int {
	switch {
	case bytes <= 4<<10:
		return 1
	case bytes >= 256<<10:
		return p
	}
	g := 1
	for g*g < p {
		g++
	}
	return g
}
