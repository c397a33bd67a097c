package mpi

import (
	"fmt"
	"math/bits"
	"slices"
)

// Algorithm selects a flat allreduce implementation. These are the
// standard algorithms production MPI libraries choose between (Thakur et
// al.) and the building blocks of both the paper's baselines and DPML's
// inter-leader phase.
type Algorithm string

// Supported flat allreduce algorithms.
const (
	// AlgRecursiveDoubling: ceil(lg p) rounds exchanging the full
	// vector; latency-optimal, used for small messages.
	AlgRecursiveDoubling Algorithm = "recursive-doubling"
	// AlgRing: ring reduce-scatter + ring allgather; bandwidth-optimal
	// (2n transferred per rank) with 2(p-1) rounds.
	AlgRing Algorithm = "ring"
	// AlgRabenseifner: recursive-halving reduce-scatter + recursive
	// doubling allgather; bandwidth-optimal with 2 lg p rounds.
	// AllreducePipelined runs it on k interleaved chunks.
	AlgRabenseifner Algorithm = "rabenseifner"
	// AlgReduceBcast: binomial reduce to rank 0 followed by binomial
	// broadcast.
	AlgReduceBcast Algorithm = "reduce-bcast"
)

// FlatAlgorithms lists every Algorithm value.
func FlatAlgorithms() []Algorithm {
	return []Algorithm{AlgRecursiveDoubling, AlgRing, AlgRabenseifner, AlgReduceBcast}
}

// Allreduce reduces vec in place across the communicator with the chosen
// algorithm: on return every rank holds the elementwise op-reduction of
// all ranks' inputs.
func (r *Rank) Allreduce(c *Comm, alg Algorithm, op *Op, vec *Vector) {
	base := c.CollTagBase(r)
	if c.Size() == 1 {
		return
	}
	switch alg {
	case AlgRecursiveDoubling:
		r.allreduceRD(c, op, vec, base)
	case AlgRing:
		r.allreduceRing(c, op, vec, base)
	case AlgRabenseifner:
		r.allreduceRab(c, op, vec, base, 1)
	case AlgReduceBcast:
		r.allreduceRedBcast(c, op, vec, base)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %q", alg))
	}
}

// largestPow2 returns the largest power of two <= p (p >= 1).
func largestPow2(p int) int { return 1 << (bits.Len(uint(p)) - 1) }

// foldRank maps a rank in the folded power-of-two group back to its comm
// rank, given rem = p - pof2 (MPICH's non-power-of-two scheme: the first
// 2*rem ranks fold pairwise onto the odd member).
func foldRank(newRank, rem int) int {
	if newRank < rem {
		return newRank*2 + 1
	}
	return newRank + rem
}

// foldIn merges the first 2*rem ranks of c pairwise (even sends to odd)
// and returns this rank's rank within the folded power-of-two group, or
// -1 for ranks that go idle until foldOut. It uses tag base+0; rem must
// be Size() - largestPow2(Size()).
func (r *Rank) foldIn(c *Comm, op *Op, vec *Vector, rem, base int) int {
	me := c.mustRank(r)
	if me >= 2*rem {
		return me - rem
	}
	if me%2 == 0 {
		r.Send(c, me+1, base, vec)
		return -1
	}
	tmp := r.scratch(vec, vec.Len())
	defer r.release(tmp)
	r.Recv(c, me-1, base, tmp)
	r.Reduce(op, vec, tmp)
	return me / 2
}

// foldOutTag is the tag offset of foldOut, the last of the window.
const foldOutTag = collSlots - 1

// foldOut delivers the final result back to the ranks idled by foldIn.
// It uses tag base+foldOutTag.
func (r *Rank) foldOut(c *Comm, vec *Vector, rem, base int) {
	me := c.mustRank(r)
	if me >= 2*rem {
		return
	}
	if me%2 == 1 {
		r.Send(c, me-1, base+foldOutTag, vec)
	} else {
		r.Recv(c, me+1, base+foldOutTag, vec)
	}
}

func (r *Rank) allreduceRD(c *Comm, op *Op, vec *Vector, base int) {
	p := c.Size()
	pof2 := largestPow2(p)
	rem := p - pof2
	newRank := r.foldIn(c, op, vec, rem, base)
	if newRank >= 0 {
		tmp := r.scratch(vec, vec.Len())
		defer r.release(tmp)
		round := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			dst := foldRank(newRank^mask, rem)
			r.SendRecv(c, dst, base+round, vec, dst, base+round, tmp)
			r.Reduce(op, vec, tmp)
			round++
		}
	}
	r.foldOut(c, vec, rem, base)
}

// BlockPartition splits n elements into p blocks as evenly as possible
// (earlier blocks take the remainder) and returns counts and
// displacements.
func BlockPartition(n, p int) (cnts, displs []int) {
	cnts = make([]int, p)
	displs = make([]int, p)
	for i := range cnts {
		lo, hi := Block(n, p, i)
		cnts[i], displs[i] = hi-lo, lo
	}
	return cnts, displs
}

// Block returns the element range [lo, hi) of block i of BlockPartition(n, p)
// without building the partition.
func Block(n, p, i int) (lo, hi int) {
	q, rem := n/p, n%p
	lo = i*q + min(i, rem)
	hi = lo + q
	if i < rem {
		hi++
	}
	return lo, hi
}

// WrapTag keeps per-round tags inside one collective's tag window
// (CollTagBase), clear of its last tag. Its caller must keep rounds that
// collide (collSlots-1 apart) from being confused: the ring never has
// both in flight, and the arrival-aware designs' colliding blocks come
// from different peers, or from one peer in order, which MPI's
// non-overtaking rule matches in order.
func WrapTag(base, round int) int {
	return base + round%(collSlots-1)
}

// The ring's view headers, one per role. Each view is dead once the
// SendRecv or Reduce it was made for returns (the envelope of a
// rendezvous send reads the payload through its own header), so a rank
// re-points the same three headers at every step.
const (
	viewSend = iota
	viewRecv
	viewFold
)

// view re-points the rank's view header i at elements [lo, hi) of v
// (see Vector.SliceInto).
func (r *Rank) view(i int, v *Vector, lo, hi int) *Vector {
	x := r.exchange()
	x.views[i] = v.SliceInto(x.views[i], lo, hi)
	return x.views[i]
}

// blocks re-points view header i at blocks [lo, hi) of v's p-way
// BlockPartition (lo < hi).
func (r *Rank) blocks(i int, v *Vector, p, lo, hi int) *Vector {
	a, _ := Block(v.n, p, lo)
	_, b := Block(v.n, p, hi-1)
	return r.view(i, v, a, b)
}

func (r *Rank) allreduceRing(c *Comm, op *Op, vec *Vector, base int) {
	me := c.mustRank(r)
	p := c.Size()
	n := vec.Len()
	right := (me + 1) % p
	left := (me - 1 + p) % p
	_, maxCnt := Block(n, p, 0)
	tmp := r.scratch(vec, maxCnt)
	defer r.release(tmp)

	// Ring reduce-scatter: after p-1 steps rank me holds the fully
	// reduced block (me+1) mod p.
	for s := 0; s < p-1; s++ {
		sb := (me - s + p) % p
		rb := (me - s - 1 + p) % p
		lo, hi := Block(n, p, rb)
		recvView := r.view(viewRecv, tmp, 0, hi-lo)
		r.SendRecv(c,
			right, WrapTag(base, s), r.blocks(viewSend, vec, p, sb, sb+1),
			left, WrapTag(base, s), recvView)
		r.Reduce(op, r.view(viewFold, vec, lo, hi), recvView)
	}
	// Ring allgather: circulate the completed blocks.
	for s := 0; s < p-1; s++ {
		sb := (me + 1 - s + p) % p
		rb := (me - s + p) % p
		r.SendRecv(c,
			right, WrapTag(base, p+s), r.blocks(viewSend, vec, p, sb, sb+1),
			left, WrapTag(base, p+s), r.blocks(viewRecv, vec, p, rb, rb+1))
	}
}

// MaxPipelineDepth is the deepest pipeline AllreducePipelined runs on a
// communicator of p ranks: its k tags for each of the 2·lg(pof2)
// rounds, and the fold tags, must fit in one collective's tag window.
func MaxPipelineDepth(p int) int {
	rounds := bits.Len(uint(p)) - 1 // lg(pof2)
	return (foldOutTag - 2) / (2*rounds + 1)
}

// AllreducePipelined is DPML-Pipelined's inter-leader allreduce (the
// paper's Section 4.2): Rabenseifner's algorithm on k interleaved
// chunks of vec, so that one chunk's fold overlaps the other chunks'
// transfers. k == 1 is Allreduce with AlgRabenseifner; a k above vec's
// length runs one chunk per element. It panics unless
// 1 <= k <= MaxPipelineDepth(c.Size()).
func (r *Rank) AllreducePipelined(c *Comm, op *Op, vec *Vector, k int) {
	if maxK := MaxPipelineDepth(c.Size()); k < 1 || k > maxK {
		panic(fmt.Sprintf("mpi: pipeline depth %d out of range [1,%d] on %d ranks", k, maxK, c.Size()))
	}
	base := c.CollTagBase(r)
	if c.Size() == 1 {
		return
	}
	if n := vec.Len(); n > 0 {
		k = min(k, n)
	}
	r.allreduceRab(c, op, vec, base, k)
}

// rabChunk is one chunk's progress through allreduceRab: its elements
// [off, off+n) of the vector, the blocks [lo, hi) of its pof2-way block
// partition that this rank holds, its round, and the exchange in flight
// with the view headers that exchange reads.
//
//dpml:owner node
type rabChunk struct {
	off, n, lo, hi, round int
	send, recv            *Request
	sendView, recvView    *Vector
}

// allreduceRab is Rabenseifner's algorithm on k chunks of vec at once:
// rounds [0, rounds) are the recursive-halving reduce-scatter, rounds
// [rounds, 2·rounds) the recursive-doubling allgather, which undoes the
// halvings in reverse. A chunk's round posts its receive, then its
// send, with tag base+1+round·k+chunk; at k = 1 the rounds take tags
// base+1 .. base+2·rounds. The rank ends a chunk's round as soon as
// both its messages are done, scanning the chunks in order and again
// after every scan that moved one (a fold takes time, in which others
// finish), and parks only when no chunk can move. The chunks' receive
// temporaries are one scratch vector, at the chunks' offsets in vec.
func (r *Rank) allreduceRab(c *Comm, op *Op, vec *Vector, base, k int) {
	p := c.Size()
	pof2 := largestPow2(p)
	rem := p - pof2
	newRank := r.foldIn(c, op, vec, rem, base)
	if newRank >= 0 {
		tmp := r.scratch(vec, vec.Len())
		defer r.release(tmp)
		rounds := bits.Len(uint(pof2)) - 1
		// blocks re-points view at blocks [lo, hi) (lo < hi) of ch's
		// partition, in v.
		blocks := func(view, v *Vector, ch *rabChunk, lo, hi int) *Vector {
			a, _ := Block(ch.n, pof2, lo)
			_, b := Block(ch.n, pof2, hi-1)
			return v.SliceInto(view, ch.off+a, ch.off+b)
		}
		// post starts ch's exchange for its round and moves [lo, hi) to
		// the blocks ch holds once that exchange is done.
		post := func(ch *rabChunk, ci int) {
			lo, hi, into := ch.lo, ch.hi, vec
			var mask, sendLo, sendHi, recvLo, recvHi int
			if ch.round < rounds {
				// Keep the half on this rank's side of the bit, which
				// arrives in tmp, and send the other.
				mask, into = 1<<ch.round, tmp
				mid := (lo + hi) / 2
				sendLo, sendHi, recvLo, recvHi = mid, hi, lo, mid
				if newRank&mask != 0 {
					sendLo, sendHi, recvLo, recvHi = lo, mid, mid, hi
				}
				ch.lo, ch.hi = recvLo, recvHi
			} else {
				// Send the blocks held; receive the half sent away at
				// this bit.
				mask = pof2 >> (ch.round - rounds + 1)
				sendLo, sendHi, recvLo, recvHi = lo, hi, hi, 2*hi-lo
				if newRank&mask != 0 {
					recvLo, recvHi = 2*lo-hi, lo
				}
				ch.lo, ch.hi = min(lo, recvLo), max(hi, recvHi)
			}
			dst := foldRank(newRank^mask, rem)
			tag := base + 1 + ch.round*k + ci
			ch.recvView = blocks(ch.recvView, into, ch, recvLo, recvHi)
			ch.sendView = blocks(ch.sendView, vec, ch, sendLo, sendHi)
			ch.recv = r.Irecv(c, dst, tag, ch.recvView)
			ch.send = r.Isend(c, dst, tag, ch.sendView)
		}
		x := r.exchange()
		x.chunks = slices.Grow(x.chunks[:0], k)[:k]
		for ci := range x.chunks {
			ch := &x.chunks[ci]
			lo, hi := Block(vec.Len(), k, ci)
			ch.off, ch.n, ch.lo, ch.hi, ch.round = lo, hi-lo, 0, pof2, 0
			post(ch, ci)
		}
		for live := k; live > 0; {
			moved := false
			for ci := range x.chunks {
				ch := &x.chunks[ci]
				if ch.send == nil || !ch.send.done || !ch.recv.done {
					continue
				}
				moved = true
				r.releaseRequest(ch.recv)
				r.releaseRequest(ch.send)
				ch.send, ch.recv = nil, nil
				if ch.round < rounds {
					ch.sendView = blocks(ch.sendView, vec, ch, ch.lo, ch.hi)
					r.Reduce(op, ch.sendView, ch.recvView)
				}
				if ch.round++; ch.round < 2*rounds {
					post(ch, ci)
				} else {
					live--
				}
			}
			if live > 0 && !moved {
				x.anyDone.WaitUntil(r.proc, (*rabWait)(x))
			}
		}
	}
	r.foldOut(c, vec, rem, base)
}

// rabWait is allreduceRab's wait condition: some chunk's exchange is
// done.
type rabWait exchange

func (w *rabWait) Ready() bool {
	for i := range w.chunks {
		if ch := &w.chunks[i]; ch.send != nil && ch.send.done && ch.recv.done {
			return true
		}
	}
	return false
}

func (w *rabWait) String() string { return "rabenseifner: wait for an exchange" }

func (r *Rank) allreduceRedBcast(c *Comm, op *Op, vec *Vector, base int) {
	me := c.mustRank(r)
	p := c.Size()
	// Binomial reduce to comm rank 0.
	tmp := r.scratch(vec, vec.Len())
	defer r.release(tmp)
	round := 0
	for mask := 1; mask < p; mask <<= 1 {
		if me&mask != 0 {
			r.Send(c, me^mask, base+round, vec)
			break
		}
		if partner := me | mask; partner < p {
			r.Recv(c, partner, base+round, tmp)
			r.Reduce(op, vec, tmp)
		}
		round++
	}
	// Binomial broadcast of the result (consumes its own tag window).
	r.Bcast(c, 0, vec)
}
