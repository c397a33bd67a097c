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

// ReduceScatter reduces p equal blocks and scatters them: comm rank i
// ends with the reduced i-th block of vec in out. Unlike
// ReduceScatterBlock's pairwise exchange, this uses recursive halving
// (lg p rounds), the large-message algorithm of Rabenseifner's scheme.
// The communicator size must be a power of two; callers with other sizes
// should use ReduceScatterBlock.
func (r *Rank) ReduceScatter(c *Comm, op *Op, vec, out *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	if p&(p-1) != 0 {
		panic(fmt.Sprintf("mpi: ReduceScatter requires power-of-two size, got %d", p))
	}
	if vec.Len()%p != 0 || out.Len() != vec.Len()/p {
		panic(fmt.Sprintf("mpi: ReduceScatter shapes: in %d, out %d, p %d", vec.Len(), out.Len(), p))
	}
	base := c.CollTagBase(r)
	if p == 1 {
		out.CopyFrom(vec)
		return
	}
	cnts, displs := BlockPartition(vec.Len(), p)
	tmp := r.scratch(vec, vec.Len())
	defer r.release(tmp)
	lo, hi := 0, p
	round := 0
	// Halve from the largest distance down so that rank i ends owning
	// block i (ascending masks would leave bit-reversed ownership).
	for mask := p / 2; mask >= 1; mask >>= 1 {
		dst := me ^ mask
		mid := (lo + hi) / 2
		var sLo, sHi, kLo, kHi int
		if me < dst {
			sLo, sHi, kLo, kHi = mid, hi, lo, mid
		} else {
			sLo, sHi, kLo, kHi = lo, mid, mid, hi
		}
		recvView := blocks(tmp, cnts, displs, kLo, kHi)
		r.SendRecv(c,
			dst, base+round, blocks(vec, cnts, displs, sLo, sHi),
			dst, base+round, recvView)
		r.Reduce(op, blocks(vec, cnts, displs, kLo, kHi), recvView)
		lo, hi = kLo, kHi
		round++
	}
	out.CopyFrom(blocks(vec, cnts, displs, me, me+1))
}
