package mpi

import "fmt"

// Barrier synchronizes the communicator with the dissemination algorithm:
// ceil(lg p) rounds of zero-byte exchanges at power-of-two distances.
func (r *Rank) Barrier(c *Comm) {
	me := c.mustRank(r)
	p := c.Size()
	if p == 1 {
		return
	}
	base := c.CollTagBase(r)
	token := NewPhantom(Int32, 0)
	in := NewPhantom(Int32, 0)
	for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
		to := (me + dist) % p
		from := (me - dist + p) % p
		r.SendRecv(c, to, base+round, token, from, base+round, in)
	}
}

// Bcast broadcasts root's vec to every rank using a binomial tree. On
// non-root ranks vec supplies the buffer shape and receives the payload.
func (r *Rank) Bcast(c *Comm, root int, vec *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	base := c.CollTagBase(r)
	if p == 1 {
		return
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range [0,%d)", root, p))
	}
	rel := (me - root + p) % p
	// Receive from the parent.
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (me - mask + p) % p
			r.Recv(c, src, base, vec)
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (me + mask) % p
			r.Send(c, dst, base, vec)
		}
		mask >>= 1
	}
}

// Gather collects every rank's vec at root. On root, out receives p
// equal-shaped blocks in comm-rank order (out must have p*vec.Len()
// elements); on other ranks out is ignored. The implementation is linear
// (root receives p-1 messages), like small-message gathers in production
// MPI libraries.
func (r *Rank) Gather(c *Comm, root int, vec, out *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	base := c.CollTagBase(r)
	if me != root {
		r.Send(c, root, base, vec)
		return
	}
	if out.Len() != p*vec.Len() {
		panic(fmt.Sprintf("mpi: Gather out has %d elements, want %d", out.Len(), p*vec.Len()))
	}
	reqs := make([]*Request, 0, p-1)
	for i := 0; i < p; i++ {
		blk := out.Slice(i*vec.Len(), (i+1)*vec.Len())
		if i == me {
			blk.CopyFrom(vec)
			continue
		}
		reqs = append(reqs, r.Irecv(c, i, base, blk))
	}
	r.WaitAll(reqs...)
}

// Allgather concatenates every rank's vec into out (p*vec.Len() elements,
// comm-rank order) using the ring algorithm: p-1 steps, each forwarding
// the block received in the previous step.
func (r *Rank) Allgather(c *Comm, vec, out *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	if out.Len() != p*vec.Len() {
		panic(fmt.Sprintf("mpi: Allgather out has %d elements, want %d", out.Len(), p*vec.Len()))
	}
	base := c.CollTagBase(r)
	out.Slice(me*vec.Len(), (me+1)*vec.Len()).CopyFrom(vec)
	if p == 1 {
		return
	}
	right := (me + 1) % p
	left := (me - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendBlk := (me - step + p) % p
		recvBlk := (me - step - 1 + p) % p
		r.SendRecv(c,
			right, wrapTag(base, step), out.Slice(sendBlk*vec.Len(), (sendBlk+1)*vec.Len()),
			left, wrapTag(base, step), out.Slice(recvBlk*vec.Len(), (recvBlk+1)*vec.Len()))
	}
}

// ReduceScatterBlock reduces p equal blocks of vec (p*blockLen elements)
// and leaves this rank's reduced block in out (blockLen elements), using
// the pairwise-exchange algorithm (p-1 steps).
func (r *Rank) ReduceScatterBlock(c *Comm, op *Op, vec, out *Vector) {
	me := c.mustRank(r)
	p := c.Size()
	if vec.Len()%p != 0 || out.Len() != vec.Len()/p {
		panic(fmt.Sprintf("mpi: ReduceScatterBlock shapes: in %d, out %d, p %d", vec.Len(), out.Len(), p))
	}
	base := c.CollTagBase(r)
	bl := out.Len()
	out.CopyFrom(vec.Slice(me*bl, (me+1)*bl))
	if p == 1 {
		return
	}
	tmp := r.scratch(vec, bl)
	defer r.release(tmp)
	for step := 1; step < p; step++ {
		dst := (me + step) % p
		src := (me - step + p) % p
		r.SendRecv(c,
			dst, wrapTag(base, step), vec.Slice(dst*bl, (dst+1)*bl),
			src, wrapTag(base, step), tmp)
		r.Reduce(op, out, tmp)
	}
}
