package mpi

import "dpml/internal/race"

// pool.go recycles the short-lived Vectors of the data path: the
// clones that carry eager payloads while a message is in flight (every
// intra-node send and every eager inter-node send clones the user's
// buffer into the envelope, and the receiver releases the clone once it
// has copied the payload out), and the receive temporaries of the flat
// algorithms (drawn when an algorithm starts, released when it
// returns). At 10k ranks a fresh allocation per message, and for real
// payloads a fresh payload-sized buffer per collective, shows up in
// simulator profiles as allocator and GC time. The free lists are
// per-node: a transit clone is drawn in the sending node's context and
// released in the receiving node's, and under a sharded kernel those
// contexts can run on different threads — per-node lists keep every
// access inside one node's LP, so no locking. A world's vectors are
// uniform in shape (the collective's message and block sizes), so
// keying by exact shape hits almost always.

// vecShape is the free-list key. Exact-length matching keeps pooled
// reuse semantically identical to a fresh vector (same dtype, length,
// phantomness); pooling across lengths would need capacity trimming and
// buys nothing for collective traffic, which is shape-uniform.
type vecShape struct {
	dtype   Datatype
	n       int
	phantom bool
}

// scratch returns a vector of n elements with like's datatype and
// phantomness, drawn from node's free list when one of that shape has
// been released there before. node must be the calling context's node.
// Its contents are undefined: callers only receive into it or overwrite
// it whole. It must be balanced by release once the caller is done with
// it — or leaked, which is only ever a missed reuse, never a bug.
func (w *World) scratch(node int, like *Vector, n int) *Vector {
	key := vecShape{dtype: like.dtype, n: n, phantom: like.Phantom()}
	free := w.trans[node][key]
	if i := len(free) - 1; i >= 0 {
		v := free[i]
		free[i] = nil
		w.trans[node][key] = free[:i]
		return v
	}
	if key.phantom {
		return NewPhantom(key.dtype, n)
	}
	return NewVector(key.dtype, n)
}

// transitClone returns a copy of v for an in-flight eager payload.
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
	key := vecShape{dtype: v.dtype, n: v.n, phantom: v.Phantom()}
	if w.trans[node] == nil {
		w.trans[node] = make(map[vecShape][]*Vector)
	}
	w.trans[node][key] = append(w.trans[node][key], v)
}

// scratch draws a receive temporary of n elements, with like's datatype
// and phantomness, from the rank's node's free list; release it when the
// algorithm returns.
func (r *Rank) scratch(like *Vector, n int) *Vector { return r.w.scratch(r.place.Node, like, n) }

// release returns a temporary drawn by scratch to the rank's node's free
// list.
func (r *Rank) release(v *Vector) { r.w.release(r.place.Node, v) }
