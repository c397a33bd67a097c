package mpi

import "dpml/internal/race"

// pool.go holds the free lists of the point-to-point path, so a warm
// message allocates nothing:
//   - vectors: the transit clones that carry real payloads while a
//     message is in flight (the sender clones its buffer into the
//     envelope, and the receiver releases the clone once it has copied
//     the payload out; phantom payloads need no clone),
//     and the receive temporaries of the flat algorithms (drawn when an
//     algorithm starts, released when it returns);
//   - envelopes: drawn with the message in the sender's context,
//     released in completeRecv, in the receiver's;
//   - requests: drawn by every Isend and Irecv, released by the Wait
//     that completes them (Rabenseifner, which polls its requests
//     instead of waiting, releases them at the end of each round);
//   - matching-queue storage (see fifo).
//
// Vector and envelope lists are per node: an object drawn in the sending
// node's context is released in the receiving node's, and under a
// sharded kernel those contexts can run on different threads. Per-node
// lists keep every access inside one node's LP, so no locking; requests
// and queues never leave their rank, so their lists are per rank.
// Because a release lands on the receiver's list, traffic that runs one
// way (a binomial Bcast, a straggler's sends) would grow that list
// without bound while the sender keeps allocating; so each per-node
// list keeps at most freePerRank objects per rank of the node, and a
// release beyond that leaves the object to the GC. A released request
// always loses its owner, so a second Wait panics and a stale
// completion faults; the race build also poisons a released vector's
// elements, so a stale reader fails a result check instead of passing.

// vecShape is a vector free list's shape. Exact-length matching keeps
// pooled reuse semantically identical to a fresh vector (same dtype,
// length, phantomness); pooling across lengths would need capacity
// trimming and buys nothing for collective traffic, which is
// shape-uniform.
type vecShape struct {
	dtype   Datatype
	n       int
	phantom bool
}

// freePerRank times a node's rank count bounds each of the node's
// envelope and per-shape vector lists. The bound sits well above the
// lists' high-water marks in every benchmark workload (at most one
// object per rank), so it only ever trims one-way surpluses.
const freePerRank = 4

// nodePool is one node's free lists. A world's vectors come in a few
// shapes (the collective's message and block sizes), so the vector lists
// are one slice entry per shape seen, found by a scan.
//
//dpml:owner node
type nodePool struct {
	vecs []shapeFree
	envs []*envelope
}

type shapeFree struct {
	shape vecShape
	free  []*Vector
}

// list returns the free list of shape sh, adding an empty one on first
// use.
func (p *nodePool) list(sh vecShape) *[]*Vector {
	for i := range p.vecs {
		if p.vecs[i].shape == sh {
			return &p.vecs[i].free
		}
	}
	p.vecs = append(p.vecs, shapeFree{shape: sh})
	return &p.vecs[len(p.vecs)-1].free
}

// scratch returns a vector of n elements with like's datatype and
// phantomness, drawn from node's free list when one of that shape has
// been released there before. node must be the calling context's node.
// Its contents are undefined: callers only receive into it or overwrite
// it whole. It must be balanced by release once the caller is done with
// it — or leaked, which is only ever a missed reuse, never a bug.
func (w *World) scratch(node int, like *Vector, n int) *Vector {
	sh := vecShape{dtype: like.dtype, n: n, phantom: like.Phantom()}
	if v, ok := take(w.pools[node].list(sh)); ok {
		return v
	}
	if sh.phantom {
		return NewPhantom(sh.dtype, n)
	}
	return NewVector(sh.dtype, n)
}

// transitClone returns a copy of v for an in-flight payload.
func (w *World) transitClone(node int, v *Vector) *Vector {
	c := w.scratch(node, v, v.n)
	c.CopyFrom(v) // no-op for phantoms
	return c
}

// release returns a vector obtained from scratch or transitClone to
// node's free list (the node whose context the release happens in — for
// an inter-node message that is the receiver, not the node the clone was
// drawn on). The caller must drop its own reference: the vector's
// storage will back a future payload or temporary. The race build
// poisons it here, so a stale reader fails its result check.
func (w *World) release(node int, v *Vector) {
	if race.Enabled {
		v.Poison()
	}
	free := w.pools[node].list(vecShape{dtype: v.dtype, n: v.n, phantom: v.Phantom()})
	if len(*free) < freePerRank*w.Job.PPN {
		*free = append(*free, v)
	}
}

// scratch draws a receive temporary of n elements, with like's datatype
// and phantomness, from the rank's node's free list; release it when the
// algorithm returns.
func (r *Rank) scratch(like *Vector, n int) *Vector { return r.w.scratch(r.place.Node, like, n) }

// release returns a temporary drawn by scratch to the rank's node's free
// list.
func (r *Rank) release(v *Vector) { r.w.release(r.place.Node, v) }

// take pops the last entry of the free list *free, if there is one.
func take[T any](free *[]T) (x T, ok bool) {
	i := len(*free) - 1
	if i < 0 {
		return x, false
	}
	x = (*free)[i]
	var zero T
	(*free)[i] = zero
	*free = (*free)[:i]
	return x, true
}

// newEnvelope draws an envelope for a message from r to dst from r's
// node's free list, or builds one with its callbacks.
func (r *Rank) newEnvelope(key msgKey, dst *Rank) *envelope {
	env, ok := take(&r.w.pools[r.place.Node].envs)
	if !ok {
		env = &envelope{}
		env.deliver = func() { env.dst.deliver(env) }
		env.cts = func() {
			s := env.src
			s.k.After(s.ep.InjectDelay(), env.inject)
		}
		env.inject = func() {
			s := env.src
			s.w.Net.StartTransfer(&env.wire, s.ep, env.dst.ep, int64(env.vec.Bytes()),
				env.land, env.sendReq.completion)
		}
		env.land = func() { env.dst.completeRecv(env, env.recvReq) }
	}
	env.key, env.src, env.dst = key, r, dst
	return env
}

// releaseEnvelope returns a delivered envelope to the receiving node's
// free list, unless the list is full. Its own view header is kept for
// the next message.
func (r *Rank) releaseEnvelope(env *envelope) {
	env.vec, env.sendReq, env.recvReq, env.src, env.dst = nil, nil, nil, nil, nil
	env.rendezvous, env.recvOverhead = false, 0
	if p := &r.w.pools[r.place.Node]; len(p.envs) < freePerRank*r.w.Job.PPN {
		p.envs = append(p.envs, env)
	}
}

// newRequest draws a request from the rank's free list, or builds one
// with its completion callback.
func (r *Rank) newRequest(kind string, key msgKey, vec *Vector) *Request {
	q, ok := take(&r.exchange().reqs)
	if !ok {
		q = &Request{}
		q.completion = q.complete
	}
	q.owner, q.kind, q.key, q.vec = r, kind, key, vec
	q.done, q.start, q.peer = false, r.k.Now(), -1
	return q
}

// releaseRequest returns a completed request to the rank's free list
// and clears its owner, so a stale Wait panics and a stale completion
// faults.
func (r *Rank) releaseRequest(q *Request) {
	q.vec, q.owner = nil, nil
	r.x.reqs = append(r.x.reqs, q)
}

// fifo is one rank's matching queues of one kind, posted receives or
// unexpected messages: a FIFO per key, MPI's non-overtaking order. A
// queue keeps its storage anchored (pop shifts the rest down), so when
// it empties the storage goes to a free list that the next key to go
// from empty to one entry reuses. The zero value is ready to use.
//
//dpml:owner node
type fifo[T any] struct {
	q    map[msgKey][]T
	free [][]T
	n    int // entries across all keys
}

// push appends x to key's queue.
func (f *fifo[T]) push(key msgKey, x T) {
	if f.q == nil {
		f.q = make(map[msgKey][]T)
	}
	q, ok := f.q[key]
	if !ok {
		q, _ = take(&f.free)
	}
	f.q[key] = append(q, x)
	f.n++
}

// pop removes and returns the head of key's queue; ok is false when the
// queue is empty.
func (f *fifo[T]) pop(key msgKey) (x T, ok bool) {
	q := f.q[key]
	if len(q) == 0 {
		return x, false
	}
	x = q[0]
	rest := copy(q, q[1:])
	var zero T
	q[rest] = zero
	if rest == 0 {
		delete(f.q, key)
		f.free = append(f.free, q[:0])
	} else {
		f.q[key] = q[:rest]
	}
	f.n--
	return x, true
}
