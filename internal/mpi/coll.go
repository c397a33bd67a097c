package mpi

import "fmt"

// Barrier synchronizes the communicator with the dissemination algorithm:
// ceil(lg p) rounds of zero-byte exchanges at power-of-two distances.
// Its rounds run as the rank's exchange step machine (see SendRecv), so
// the rank parks once for the whole barrier.
func (r *Rank) Barrier(c *Comm) {
	me := c.mustRank(r)
	p := c.Size()
	if p == 1 {
		return
	}
	x := r.exchange()
	x.c, x.sendVec, x.recvVec = c, r.w.empty, r.w.empty
	x.me, x.p, x.dist = me, p, 1
	x.round(c.CollTagBase(r))
	x.runSteps()
}

// round sets up the Barrier round at distance x.dist: send to the rank
// dist ahead, receive from the rank dist behind, both on tag.
func (x *exchange) round(tag int) {
	x.dst, x.src = (x.me+x.dist)%x.p, (x.me-x.dist+x.p)%x.p
	x.sendTag, x.recvTag = tag, tag
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
