package mpi

import (
	"fmt"

	"dpml/internal/sim"
)

// msgKey identifies a matching bucket: messages match on (communicator,
// source global rank, tag), FIFO within a bucket (MPI's non-overtaking
// rule).
type msgKey struct {
	comm int
	src  int
	tag  int
}

// envelope is one in-flight message from the receiver's perspective: for
// eager sends it arrives carrying the payload; for rendezvous it is the
// RTS, and the payload moves only after the receiver matches it.
// Matching state lives on the receiver's node LP.
//
//dpml:owner node
type envelope struct {
	key          msgKey
	vec          *Vector
	rendezvous   bool
	sendReq      *Request // rendezvous: completes when the payload lands
	srcRank      *Rank
	recvOverhead sim.Duration // receiver CPU cost charged before completion
}

// Isend starts a non-blocking send of vec to comm rank dst with the given
// tag. The returned request completes when the send buffer is reusable:
// immediately after local processing for eager messages, at payload
// delivery for rendezvous messages. Intra-node sends perform the
// shared-memory copy synchronously (the sending core does the memcpy).
func (r *Rank) Isend(c *Comm, dst, tag int, vec *Vector) *Request {
	r.checkP2P(c, dst, tag, vec)
	dstGlobal := c.Global(dst)
	key := msgKey{comm: c.id, src: r.rank, tag: tag}
	req := newRequest(r, "send", key, vec)
	req.peer = dstGlobal
	dstRank := r.w.ranks[dstGlobal]
	prof := r.w.Job.Cluster.Net

	if r.place.Node == dstRank.place.Node {
		// Intra-node: one shared-memory copy by the sender, then the
		// message is visible to the receiver.
		cross := r.place.Socket != dstRank.place.Socket
		r.MemCopy(cross, vec.Bytes())
		dstRank.deliver(&envelope{key: key, vec: r.w.transitClone(r.place.Node, vec), srcRank: r})
		req.complete()
		return req
	}

	if vec.Bytes() <= r.w.EagerThreshold() {
		// Eager: pay CPU overhead and the NIC injection slot, launch the
		// wire transfer, and consider the buffer reusable at once.
		r.proc.Sleep(r.w.stretch(r, prof.SenderOverhead))
		if d := r.ep.InjectDelay(); d > 0 {
			r.proc.Sleep(d)
		}
		env := &envelope{key: key, vec: r.w.transitClone(r.place.Node, vec), srcRank: r, recvOverhead: prof.ReceiverOverhead + r.jitter()}
		r.w.Net.StartTransfer(r.ep, dstRank.ep, int64(vec.Bytes()), func() { dstRank.deliver(env) })
		req.complete()
		return req
	}

	// Rendezvous: an RTS control message travels to the receiver; the
	// payload moves only after the receiver matches and returns a CTS.
	r.proc.Sleep(r.w.stretch(r, prof.SenderOverhead))
	env := &envelope{
		key: key, vec: vec, rendezvous: true, sendReq: req, srcRank: r,
		recvOverhead: prof.ReceiverOverhead + r.jitter(),
	}
	// The RTS fires in the receiver's node context one wire latency out
	// (the lookahead bound makes this legal under any sharding).
	r.k.AfterOn(dstRank.place.Node, prof.WireLatency, func() { dstRank.deliver(env) })
	return req
}

// Irecv posts a non-blocking receive into vec from comm rank src with the
// given tag. The request completes once the payload has landed and the
// receiver-side overhead has elapsed.
func (r *Rank) Irecv(c *Comm, src, tag int, vec *Vector) *Request {
	r.checkP2P(c, src, tag, vec)
	key := msgKey{comm: c.id, src: c.Global(src), tag: tag}
	req := newRequest(r, "recv", key, vec)
	req.peer = c.Global(src)
	if q := r.unexpected[key]; len(q) > 0 {
		env := q[0]
		if len(q) == 1 {
			delete(r.unexpected, key)
		} else {
			r.unexpected[key] = q[1:]
		}
		if env.rendezvous {
			r.startRendezvous(env, req)
		} else {
			r.completeRecv(env, req)
		}
		return req
	}
	r.posted[key] = append(r.posted[key], req)
	return req
}

// Send is the blocking send: Isend followed by Wait.
func (r *Rank) Send(c *Comm, dst, tag int, vec *Vector) {
	r.Wait(r.Isend(c, dst, tag, vec))
}

// Recv is the blocking receive: Irecv followed by Wait.
func (r *Rank) Recv(c *Comm, src, tag int, vec *Vector) {
	r.Wait(r.Irecv(c, src, tag, vec))
}

// SendRecv posts the receive, runs the send, and waits for both — the
// deadlock-free exchange used by pairwise algorithms.
func (r *Rank) SendRecv(c *Comm, dst, sendTag int, sendVec *Vector, src, recvTag int, recvVec *Vector) {
	rq := r.Irecv(c, src, recvTag, recvVec)
	sq := r.Isend(c, dst, sendTag, sendVec)
	r.WaitAll(rq, sq)
}

// deliver hands an arriving envelope (eager payload or rendezvous RTS) to
// this rank: match a posted receive or park it as unexpected. Runs in
// simulation context (sender proc or event callback).
func (r *Rank) deliver(env *envelope) {
	if q := r.posted[env.key]; len(q) > 0 {
		req := q[0]
		if len(q) == 1 {
			delete(r.posted, env.key)
		} else {
			r.posted[env.key] = q[1:]
		}
		if env.rendezvous {
			r.startRendezvous(env, req)
		} else {
			r.completeRecv(env, req)
		}
		return
	}
	r.unexpected[env.key] = append(r.unexpected[env.key], env)
}

// completeRecv copies the payload into the posted buffer and completes the
// request after the receiver-side overhead.
func (r *Rank) completeRecv(env *envelope, req *Request) {
	if req.vec.Bytes() != env.vec.Bytes() {
		panic(fmt.Sprintf("mpi: recv buffer %d bytes for %d-byte message (key %+v)",
			req.vec.Bytes(), env.vec.Bytes(), env.key))
	}
	req.vec.CopyFrom(env.vec)
	if !env.rendezvous {
		// Eager payloads ride in a transit clone that dies here; recycle
		// it into this node's pool (it was drawn from the sender's).
		// Rendezvous envelopes carry the sender's own buffer, which the
		// pool must never capture.
		r.w.release(r.place.Node, env.vec)
	}
	env.vec = nil
	if env.recvOverhead > 0 {
		// The receiver's straggler factor applies at landing time, not at
		// the instant the sender stamped the overhead.
		r.k.After(r.w.stretch(r, env.recvOverhead), req.complete)
	} else {
		req.complete()
	}
}

// startRendezvous runs the CTS + data phase of a matched rendezvous
// message entirely in event context: CTS wire latency back to the sender
// (in the sender's node context, where its NIC injection slot is
// reserved), the payload flow, then completion of both requests — the
// receive side in the receiver's context, the send side in the sender's.
func (r *Rank) startRendezvous(env *envelope, req *Request) {
	w := r.w
	prof := w.Job.Cluster.Net
	src := env.srcRank
	r.k.AfterOn(src.place.Node, prof.WireLatency, func() { // CTS reaches the sender
		d := src.ep.InjectDelay()
		src.k.After(d, func() {
			w.Net.StartTransferNotify(src.ep, r.ep, int64(env.vec.Bytes()),
				func() { r.completeRecv(env, req) },
				env.sendReq.complete)
		})
	})
}

func (r *Rank) checkP2P(c *Comm, peer, tag int, vec *Vector) {
	if c == nil {
		panic("mpi: nil communicator")
	}
	if c.RankOf(r) < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in communicator %d", r.rank, c.id))
	}
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("mpi: peer %d out of range [0,%d)", peer, c.Size()))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: negative tag %d", tag))
	}
	if vec == nil {
		panic("mpi: nil vector")
	}
}
