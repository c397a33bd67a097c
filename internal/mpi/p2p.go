package mpi

import (
	"fmt"

	"dpml/internal/fabric"
	"dpml/internal/sim"
)

// msgKey is what messages match on: (communicator, source global rank,
// tag), exactly, FIFO per key (MPI's non-overtaking rule).
type msgKey struct {
	comm int
	src  int
	tag  int
}

// envelope is one in-flight message from the receiver's perspective: for
// eager sends it arrives carrying the payload; for rendezvous it is the
// RTS, and the payload moves only after the receiver matches it.
// Matching state lives on the receiver's node LP. Envelopes are recycled
// (see pool.go), and each builds its callbacks once.
//
//dpml:owner node
type envelope struct {
	key          msgKey
	vec          *Vector // the payload: a transit clone or own
	own          *Vector // this envelope's view header, kept across reuse
	rendezvous   bool
	sendReq      *Request // rendezvous: completes when the payload lands
	recvReq      *Request // rendezvous: the matched receive
	src, dst     *Rank
	recvOverhead sim.Duration    // receiver CPU cost charged before completion
	wire         fabric.Transfer // an inter-node payload's fabric record

	deliver func() // in dst's context: the eager payload or the RTS arrives
	cts     func() // in src's context: the CTS arrives; reserve an injection slot
	inject  func() // in src's context: the slot opens; start the payload flow
	land    func() // in dst's context: the payload has landed
}

// Isend starts a non-blocking send of vec to comm rank dst with the given
// tag. The returned request completes when the send buffer is reusable:
// immediately after local processing for eager messages, at payload
// delivery for rendezvous messages. Either way the receiver copies from
// the envelope's transit clone, never from vec (see carry). Intra-node
// sends perform the shared-memory copy synchronously (the sending core
// does the memcpy). Isend is its arm form, armIsend, then one Park and
// one finishIsend per wait the send arms.
func (r *Rank) Isend(c *Comm, dst, tag int, vec *Vector) *Request {
	q := r.armIsend(c, dst, tag, vec)
	for {
		r.proc.Park()
		if r.finishIsend(q) {
			return q
		}
	}
}

// armIsend is Isend's arm form: it draws the send's request and
// envelope and arms the rank's proc on the send's first wait, the
// sender's shared-memory copy for an intra-node message and the sender
// overhead otherwise. Once the proc runs again, the caller calls
// finishIsend with the request until it reports true.
func (r *Rank) armIsend(c *Comm, dst, tag int, vec *Vector) *Request {
	r.checkP2P(c, dst, tag, vec)
	dstRank := r.w.ranks[c.Global(dst)]
	key := msgKey{comm: c.id, src: r.rank, tag: tag}
	req := r.newRequest("send", key, vec)
	req.peer = dstRank.rank
	r.x.env = r.newEnvelope(key, dstRank)
	if r.place.Node == dstRank.place.Node {
		// Intra-node: one shared-memory copy by the sender, then the
		// message is visible to the receiver.
		r.ArmMemCopy(r.place.Socket != dstRank.place.Socket, vec.Bytes())
		return req
	}
	// Eager and rendezvous both pay the sender's CPU overhead first.
	r.proc.ArmSleep(r.w.stretch(r, r.w.Job.Cluster.Net.SenderOverhead))
	return req
}

// finishIsend runs the rest of the send armIsend started as q, once the
// wait it armed has ended. It reports false when it has armed another
// wait, the eager path's NIC injection slot, after which it runs again.
func (r *Rank) finishIsend(q *Request) bool {
	x := r.x
	env, vec := x.env, q.vec
	dst := env.dst
	prof := r.w.Job.Cluster.Net
	switch {
	case r.place.Node == dst.place.Node:
		r.EndWork()
		env.carry(vec)
		dst.deliver(env)
		q.complete()
	case vec.Bytes() <= r.w.Job.Cluster.Net.EagerThreshold:
		// Eager: wait for the NIC injection slot, launch the wire
		// transfer, and consider the buffer reusable at once.
		if !x.injecting {
			if d := r.ep.InjectDelay(); d > 0 {
				x.injecting = true
				r.proc.ArmSleep(d)
				return false
			}
		}
		x.injecting = false
		env.carry(vec)
		env.recvOverhead = prof.ReceiverOverhead + r.jitter()
		r.w.Net.StartTransfer(&env.wire, r.ep, dst.ep, int64(vec.Bytes()), env.deliver, nil)
		q.complete()
	default:
		// Rendezvous: an RTS control message travels to the receiver;
		// the payload moves only after the receiver matches and returns
		// a CTS.
		env.rendezvous, env.sendReq = true, q
		env.carry(vec)
		env.recvOverhead = prof.ReceiverOverhead + r.jitter()
		// The RTS fires in the receiver's node context one wire latency
		// out (the lookahead bound makes this legal under any sharding).
		r.k.AfterOn(dst.place.Node, prof.WireLatency, env.deliver)
	}
	x.env = nil
	return true
}

// carry sets the envelope's payload to vec's elements. A real payload
// travels in a transit clone, since the sender may write vec once its
// request completes: at once for eager, and at the instant the payload
// lands for rendezvous, which on a sharded kernel can run before the
// receiver copies. A phantom has no elements to change, so the envelope
// views it through its own header.
func (env *envelope) carry(vec *Vector) {
	if !vec.Phantom() {
		s := env.src
		env.vec = s.w.transitClone(s.place.Node, vec)
		return
	}
	env.own = vec.SliceInto(env.own, 0, vec.n)
	env.vec = env.own
}

// Irecv posts a non-blocking receive into vec from comm rank src with the
// given tag. The request completes once the payload has landed and the
// receiver-side overhead has elapsed.
func (r *Rank) Irecv(c *Comm, src, tag int, vec *Vector) *Request {
	r.checkP2P(c, src, tag, vec)
	key := msgKey{comm: c.id, src: c.Global(src), tag: tag}
	req := r.newRequest("recv", key, vec)
	req.peer = c.Global(src)
	if env, ok := r.unexpected.pop(key); ok {
		r.match(env, req)
		return req
	}
	r.posted.push(key, req)
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
// deadlock-free exchange used by pairwise algorithms. It runs as the
// rank's exchange step machine, so the rank parks once for the whole
// exchange.
func (r *Rank) SendRecv(c *Comm, dst, sendTag int, sendVec *Vector, src, recvTag int, recvVec *Vector) {
	x := r.exchange()
	x.c, x.dst, x.sendTag, x.sendVec = c, dst, sendTag, sendVec
	x.src, x.recvTag, x.recvVec = src, recvTag, recvVec
	x.p, x.dist = 0, 1
	x.runSteps()
}

// exchange is a rank's point-to-point state: its free requests and the
// signal they fire, the flat algorithms' view headers and chunks, and
// its step machine (sim.Proc.RunSteps). SendRecv runs one exchange through the
// machine, and Barrier its rounds of them, while the rank stays parked
// and the kernel runs each send's waits and each Wait in its place. A
// rank builds its exchange with its first request and keeps it, so a
// rank that never sends or receives does not pay for one, and an
// exchange allocates nothing.
//
//dpml:owner node
type exchange struct {
	r       *Rank
	anyDone sim.Signal  // fired whenever one of the rank's requests completes
	reqs    []*Request  // free requests (see pool.go)
	views   [3]*Vector  // the ring's reusable view headers (see view)
	chunks  []rabChunk  // allreduceRab's chunks, kept for their view headers
	run     func() bool // x.step, built once

	// The send between armIsend and finishIsend.
	env       *envelope
	injecting bool // eager: the NIC injection wait is armed

	// The exchange in progress, and pc where it resumes.
	pc           uint8
	c            *Comm
	dst, sendTag int
	sendVec      *Vector
	src, recvTag int
	recvVec      *Vector
	rq, sq       *Request
	me, p, dist  int // Barrier's rounds: the exchange at distance dist; p = 0 for SendRecv
}

// exchange returns the rank's exchange, building it on first use.
func (r *Rank) exchange() *exchange {
	if r.x == nil {
		r.x = &exchange{r: r}
		r.x.run = r.x.step
	}
	return r.x
}

// runSteps runs the exchange set up in x's fields as the rank's step
// machine and returns when it is done.
func (x *exchange) runSteps() {
	x.pc = 0
	x.r.proc.RunSteps(x.run)
	x.c, x.sendVec, x.recvVec, x.rq, x.sq = nil, nil, nil, nil, nil
}

// step runs the exchange in progress up to its next wait: post the
// receive, arm and finish the send, then wait for the receive and the
// send in turn, as SendRecv's Irecv, Isend and two Waits do; a Barrier
// then moves on to its next round at the same instant.
func (x *exchange) step() bool {
	r := x.r
	for {
		switch x.pc {
		case 0:
			x.rq = r.Irecv(x.c, x.src, x.recvTag, x.recvVec)
			x.sq = r.armIsend(x.c, x.dst, x.sendTag, x.sendVec)
			x.pc = 1
			return false
		case 1:
			if !r.finishIsend(x.sq) {
				return false
			}
			x.pc = 2
			if !r.armWait(x.rq) {
				return false
			}
			fallthrough
		case 2:
			r.releaseRequest(x.rq)
			x.pc = 3
			if !r.armWait(x.sq) {
				return false
			}
		}
		r.releaseRequest(x.sq)
		if x.dist *= 2; x.dist >= x.p {
			return true
		}
		x.round(x.sendTag + 1)
		x.pc = 0
	}
}

// deliver hands an arriving envelope (eager payload or rendezvous RTS) to
// this rank: match a posted receive or park it as unexpected. Runs in
// simulation context (sender proc or event callback).
func (r *Rank) deliver(env *envelope) {
	if req, ok := r.posted.pop(env.key); ok {
		r.match(env, req)
		return
	}
	r.unexpected.push(env.key, env)
}

// match pairs an envelope with its receive.
func (r *Rank) match(env *envelope, req *Request) {
	if env.rendezvous {
		r.startRendezvous(env, req)
	} else {
		r.completeRecv(env, req)
	}
}

// completeRecv copies the payload into the posted buffer, completes the
// request after the receiver-side overhead, and recycles the envelope.
func (r *Rank) completeRecv(env *envelope, req *Request) {
	if req.vec.Bytes() != env.vec.Bytes() {
		panic(fmt.Sprintf("mpi: recv buffer %d bytes for %d-byte message (key %+v)",
			req.vec.Bytes(), env.vec.Bytes(), env.key))
	}
	req.vec.CopyFrom(env.vec)
	if env.vec != env.own {
		// Real payloads ride in a transit clone that dies here; recycle
		// it into this node's pool (it was drawn from the sender's). A
		// phantom's own header views the sender's buffer, which the
		// pool must never capture.
		r.w.release(r.place.Node, env.vec)
	}
	if env.recvOverhead > 0 {
		// The receiver's straggler factor applies at landing time, not at
		// the instant the sender stamped the overhead.
		r.k.After(r.w.stretch(r, env.recvOverhead), req.completion)
	} else {
		req.complete()
	}
	r.releaseEnvelope(env)
}

// startRendezvous runs the CTS + data phase of a matched rendezvous
// message entirely in event context: CTS wire latency back to the sender
// (in the sender's node context, where its NIC injection slot is
// reserved), the payload flow, then completion of both requests — the
// receive side in the receiver's context, the send side in the sender's.
func (r *Rank) startRendezvous(env *envelope, req *Request) {
	env.recvReq = req
	r.k.AfterOn(env.src.place.Node, r.w.Job.Cluster.Net.WireLatency, env.cts) // CTS reaches the sender
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
