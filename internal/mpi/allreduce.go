package mpi

import "fmt"

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
		r.allreduceRab(c, op, vec, base)
	case AlgReduceBcast:
		r.allreduceRedBcast(c, op, vec, base)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %q", alg))
	}
}

// LargestPow2 returns the largest power of two <= p (p >= 1).
func LargestPow2(p int) int {
	k := 1
	for k*2 <= p {
		k *= 2
	}
	return k
}

// FoldRank maps a rank in the folded power-of-two group back to its comm
// rank, given rem = p - pof2 (MPICH's non-power-of-two scheme: the first
// 2*rem ranks fold pairwise onto the odd member).
func FoldRank(newRank, rem int) int {
	if newRank < rem {
		return newRank*2 + 1
	}
	return newRank + rem
}

// FoldIn merges the first 2*rem ranks of c pairwise (even sends to odd)
// and returns this rank's rank within the folded power-of-two group, or
// -1 for ranks that go idle until FoldOut. It uses tag base+0; rem must
// be Size() - LargestPow2(Size()). FoldIn/FoldOut are exported so that
// algorithm extensions (e.g. pipelined inter-leader allreduce) can handle
// non-power-of-two groups the same way the built-in algorithms do.
func (r *Rank) FoldIn(c *Comm, op *Op, vec *Vector, rem, base int) int {
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

// FoldOut delivers the final result back to the ranks idled by FoldIn.
// It uses tag base+FoldOutTag.
const FoldOutTag = collSlots - 1

func (r *Rank) FoldOut(c *Comm, vec *Vector, rem, base int) {
	me := c.mustRank(r)
	if me >= 2*rem {
		return
	}
	if me%2 == 1 {
		r.Send(c, me-1, base+FoldOutTag, vec)
	} else {
		r.Recv(c, me+1, base+FoldOutTag, vec)
	}
}

func (r *Rank) allreduceRD(c *Comm, op *Op, vec *Vector, base int) {
	p := c.Size()
	pof2 := LargestPow2(p)
	rem := p - pof2
	newRank := r.FoldIn(c, op, vec, rem, base)
	if newRank >= 0 {
		tmp := r.scratch(vec, vec.Len())
		defer r.release(tmp)
		round := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			dst := FoldRank(newRank^mask, rem)
			r.SendRecv(c, dst, base+round, vec, dst, base+round, tmp)
			r.Reduce(op, vec, tmp)
			round++
		}
	}
	r.FoldOut(c, vec, rem, base)
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

// wrapTag keeps per-round tags inside one collective's tag window.
// Rounds that collide (collSlots-1 apart) are never simultaneously in
// flight: every algorithm here completes a round's exchange with a
// partner before reusing that distance.
func wrapTag(base, round int) int {
	return base + round%(collSlots-1)
}

// The flat algorithms' view headers, one per role. Each view is dead
// once the SendRecv or Reduce it was made for returns (the envelope of a
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
	r.views[i] = v.SliceInto(r.views[i], lo, hi)
	return r.views[i]
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
			right, wrapTag(base, s), r.blocks(viewSend, vec, p, sb, sb+1),
			left, wrapTag(base, s), recvView)
		r.Reduce(op, r.view(viewFold, vec, lo, hi), recvView)
	}
	// Ring allgather: circulate the completed blocks.
	for s := 0; s < p-1; s++ {
		sb := (me + 1 - s + p) % p
		rb := (me - s + p) % p
		r.SendRecv(c,
			right, wrapTag(base, p+s), r.blocks(viewSend, vec, p, sb, sb+1),
			left, wrapTag(base, p+s), r.blocks(viewRecv, vec, p, rb, rb+1))
	}
}

func (r *Rank) allreduceRab(c *Comm, op *Op, vec *Vector, base int) {
	p := c.Size()
	pof2 := LargestPow2(p)
	rem := p - pof2
	newRank := r.FoldIn(c, op, vec, rem, base)
	if newRank >= 0 {
		tmp := r.scratch(vec, vec.Len())
		defer r.release(tmp)
		lo, hi := 0, pof2
		round := 1
		// Recursive-halving reduce-scatter: at each bit, keep the half
		// of blocks [lo, hi) on this rank's side and send the other.
		for mask := 1; mask < pof2; mask <<= 1 {
			dst := FoldRank(newRank^mask, rem)
			mid := (lo + hi) / 2
			sentLo, sentHi, kepLo, kepHi := mid, hi, lo, mid
			if newRank&mask != 0 {
				sentLo, sentHi, kepLo, kepHi = lo, mid, mid, hi
			}
			recvView := r.blocks(viewRecv, tmp, pof2, kepLo, kepHi)
			r.SendRecv(c,
				dst, base+round, r.blocks(viewSend, vec, pof2, sentLo, sentHi),
				dst, base+round, recvView)
			r.Reduce(op, r.blocks(viewFold, vec, pof2, kepLo, kepHi), recvView)
			lo, hi = kepLo, kepHi
			round++
		}
		// Recursive-doubling allgather: undo the halvings in reverse,
		// sending the kept half and receiving the half sent away.
		for mask := pof2 >> 1; mask > 0; mask >>= 1 {
			dst := FoldRank(newRank^mask, rem)
			sentLo, sentHi := hi, 2*hi-lo
			if newRank&mask != 0 {
				sentLo, sentHi = 2*lo-hi, lo
			}
			r.SendRecv(c,
				dst, base+round, r.blocks(viewSend, vec, pof2, lo, hi),
				dst, base+round, r.blocks(viewRecv, vec, pof2, sentLo, sentHi))
			lo, hi = min(lo, sentLo), max(hi, sentHi)
			round++
		}
	}
	r.FoldOut(c, vec, rem, base)
}

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
