package core

import (
	"dpml/internal/fabric"
	"dpml/internal/mpi"
	"dpml/internal/trace"
)

// sharpAllreduce implements the two SHArP designs of Section 4.3.
//
// Node-leader (socketLevel=false): every local rank copies its full input
// to the node leader (local rank 0) through shared memory — ranks on the
// other socket pay the cross-socket penalty on both the gather and the
// broadcast; the leader performs ppn-1 reductions, hands the partial
// result to the switch tree, and broadcasts the result back.
//
// Socket-leader (socketLevel=true): one leader per socket gathers only
// its socket's ranks (no cross-socket copies), and all socket leaders of
// all nodes participate in one SHArP operation.
//
// Payloads beyond the fabric's SHArP limit fall back to the host-based
// single-leader hierarchy, as production implementations do.
func (e *Engine) sharpAllreduce(r *mpi.Rank, op *mpi.Op, vec *mpi.Vector, socketLevel bool) {
	group, host := e.sharpNode, e.sharpNodeHost
	if socketLevel {
		group, host = e.sharpSocket, e.sharpSocketHost
	}
	if vec.Bytes() > e.W.Sharp.MaxPayload() {
		e.dpml(r, op, vec, HostBased())
		return
	}

	rec := e.W.Tracer()
	ppn := e.W.Job.PPN
	if ppn == 1 {
		// The designs coincide: the single local rank is the leader.
		sp := rec.BeginSpan(r.Rank(), trace.PhaseSharp, r.Now())
		e.sharpOp(r, group, host, op, vec)
		sp.End(r.Now())
		return
	}

	leader := 0
	want := ppn
	if socketLevel {
		leader = e.socketLeader[r.Place().LocalRank]
		want = e.socketSize[leader]
	}

	// Gather: full input to this rank's leader. Segment indices are
	// local rank numbers, so leaders' segments never collide.
	o := e.newShmOp(r, ppn, vec.Len())
	sp := rec.BeginSpan(r.Rank(), trace.PhaseCopy, r.Now())
	o.put(leader, vec)
	sp.End(r.Now())

	if r.Place().LocalRank == leader {
		sp = rec.BeginSpan(r.Rank(), trace.PhaseReduce, r.Now())
		acc := o.fold(op, leader, want, socketLevel)
		sp.End(r.Now())
		sp = rec.BeginSpan(r.Rank(), trace.PhaseSharp, r.Now())
		e.sharpOp(r, group, host, op, acc)
		o.publish(leader, acc)
		sp.End(r.Now())
	}

	// Broadcast: copy the result back from this rank's leader.
	sp = rec.BeginSpan(r.Rank(), trace.PhaseBcast, r.Now())
	o.get(leader, vec)
	o.done()
	sp.End(r.Now())
}

// sharpOp runs one in-network reduction for this leader, folding real
// payloads through the switch model's data path. If the offload is
// offline (fault injection), every leader of the failed operation sees
// the same ErrSharpOffline — the verdict is made once, by the operation's
// last arriver — and they complete the inter-node reduction with a
// host-based algorithm over the matching leader communicator instead,
// recording the degradation in the trace.
func (e *Engine) sharpOp(r *mpi.Rank, group *fabric.SharpGroup, host *mpi.Comm, op *mpi.Op, vec *mpi.Vector) {
	var contrib any
	var combine func(a, b any) any
	if !vec.Phantom() {
		contrib = vec.Clone()
		combine = func(a, b any) any {
			av, bv := a.(*mpi.Vector), b.(*mpi.Vector)
			op.Apply(av, bv)
			return av
		}
	}
	res, err := group.Allreduce(r.Proc(), vec.Bytes(), contrib, combine)
	if err == fabric.ErrSharpOffline {
		alg := autoAlg(vec.Bytes())
		start := r.Now()
		if host.Size() > 1 {
			r.Allreduce(host, alg, op, vec)
		}
		e.W.Tracer().Add(trace.Event{
			Rank: r.Rank(), Kind: trace.KindFallback, Label: "sharp->host(" + string(alg) + ")",
			Start: start, End: r.Now(), Bytes: vec.Bytes(),
		})
		return
	}
	if err != nil {
		// The payload was validated against MaxPayload by the caller;
		// remaining errors indicate inconsistent collective calls.
		panic(err)
	}
	if res != nil {
		vec.CopyFrom(res.(*mpi.Vector))
	}
}
