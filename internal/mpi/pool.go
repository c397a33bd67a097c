package mpi

// pool.go recycles the Vector clones that carry eager payloads while a
// message is in flight. Every intra-node send and every eager inter-node
// send clones the user's buffer into the envelope and the clone dies as
// soon as the receiver copies it out — at 10k ranks that is one
// short-lived allocation per message, and the allocator (plus the GC
// scans it induces) shows up in simulator profiles. The free lists are
// per-node: clones are drawn in the sending node's context and released
// in the receiving node's, and under a sharded kernel those contexts can
// run on different threads — per-node lists keep every access inside one
// node's LP, so no locking. A world's transit clones are uniform in
// shape (the collective's message size), so keying by exact shape hits
// almost always.

// vecShape is the free-list key. Exact-length matching keeps pooled
// reuse semantically identical to a fresh Clone (same dtype, length,
// phantomness); pooling across lengths would need capacity trimming and
// buys nothing for collective traffic, which is shape-uniform.
type vecShape struct {
	dtype   Datatype
	n       int
	phantom bool
}

// transitClone returns a copy of v for an in-flight eager payload,
// drawing the Vector (and, for real data, its storage) from node's free
// list when a same-shape clone has been released there before. node must
// be the calling context's node. The copy must be balanced by
// transitRelease once the payload has been copied out — or leaked, which
// is only ever a missed reuse, never a bug.
func (w *World) transitClone(node int, v *Vector) *Vector {
	key := vecShape{dtype: v.dtype, n: v.n, phantom: v.Phantom()}
	free := w.trans[node][key]
	if n := len(free); n > 0 {
		c := free[n-1]
		free[n-1] = nil
		w.trans[node][key] = free[:n-1]
		c.CopyFrom(v) // no-op for phantoms
		return c
	}
	return v.Clone()
}

// transitRelease returns a clone obtained from transitClone to node's
// free list (the node whose context the release happens in — for
// inter-node messages that is the receiver, not the node the clone was
// drawn on). The caller must drop its own reference: the vector's
// storage will back a future in-flight payload.
func (w *World) transitRelease(node int, v *Vector) {
	key := vecShape{dtype: v.dtype, n: v.n, phantom: v.Phantom()}
	if w.trans[node] == nil {
		w.trans[node] = make(map[vecShape][]*Vector)
	}
	w.trans[node][key] = append(w.trans[node][key], v)
}
