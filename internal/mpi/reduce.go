package mpi

import "fmt"

// ReduceColl reduces vec across the communicator, leaving the result in
// root's vec (other ranks' buffers hold partial garbage afterwards, like
// MPI_Reduce's send buffer semantics). The algorithm is the binomial
// reduction tree production libraries default to for commutative ops.
func (r *Rank) ReduceColl(c *Comm, root int, op *Op, vec *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	base := c.CollTagBase(r)
	if p == 1 {
		return
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mpi: Reduce root %d out of range [0,%d)", root, p))
	}
	// Rotate so the tree is rooted at comm rank 0.
	rel := (me - root + p) % p
	tmp := r.scratch(vec, vec.Len())
	defer r.release(tmp)
	round := 0
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (((rel ^ mask) + root) % p)
			r.Send(c, dst, base+round, vec)
			return
		}
		if partner := rel | mask; partner < p {
			src := (partner + root) % p
			r.Recv(c, src, base+round, tmp)
			r.Reduce(op, vec, tmp)
		}
		round++
	}
}
