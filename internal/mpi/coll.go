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
	token := r.w.empty
	for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
		to := (me + dist) % p
		from := (me - dist + p) % p
		r.SendRecv(c, to, base+round, token, from, base+round, token)
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
