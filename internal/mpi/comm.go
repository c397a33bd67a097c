package mpi

import "fmt"

// Comm is a communicator: an ordered group of global ranks. Comm rank i is
// the i-th entry of the group. Communicators are immutable; build them
// with World.NewComm or World.LeaderComm.
//
//dpml:owner shared
type Comm struct {
	w     *World
	id    int
	ranks []int       // comm rank -> global rank
	index map[int]int // global rank -> comm rank
	seq   []uint32    // per comm-rank collective sequence number
}

// NewComm builds a communicator from global ranks (in comm-rank order).
// Ranks must be distinct and valid, and members' messages match only on
// one shared Comm, so build each once, as core.Engine does. Safe to call
// during the run from any rank (id allocation is locked); ids are unique
// but carry no meaning beyond matching, so their allocation order cannot
// affect results.
func (w *World) NewComm(ranks []int) *Comm {
	if len(ranks) == 0 {
		panic("mpi: empty communicator")
	}
	w.mu.Lock()
	id := w.nextCID
	w.nextCID++
	w.mu.Unlock()
	c := &Comm{
		w:     w,
		id:    id,
		ranks: append([]int(nil), ranks...),
		index: make(map[int]int, len(ranks)),
		seq:   make([]uint32, len(ranks)),
	}
	for i, g := range c.ranks {
		if g < 0 || g >= len(w.ranks) {
			panic(fmt.Sprintf("mpi: communicator rank %d out of range", g))
		}
		if _, dup := c.index[g]; dup {
			panic(fmt.Sprintf("mpi: duplicate rank %d in communicator", g))
		}
		c.index[g] = i
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Global returns the global rank of comm rank i.
func (c *Comm) Global(i int) int { return c.ranks[i] }

// RankOf returns r's comm rank, or -1 if r is not a member.
func (c *Comm) RankOf(r *Rank) int {
	if i, ok := c.index[r.rank]; ok {
		return i
	}
	return -1
}

// mustRank returns r's comm rank, panicking when r is not a member —
// collective calls on a communicator one is not part of are programming
// errors.
func (c *Comm) mustRank(r *Rank) int {
	i := c.RankOf(r)
	if i < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not in communicator %d", r.rank, c.id))
	}
	return i
}

// Collective tag management: each collective invocation on a communicator
// consumes one sequence number per participating rank. Because every rank
// calls the same collectives in the same order (MPI semantics), the
// per-rank counters stay in lockstep and the derived tag space never
// collides between consecutive operations, even with messages in flight.
const (
	// userTagLimit is the largest tag application point-to-point
	// messages may use; collectives tag above it.
	userTagLimit = 1 << 20
	// collSlots is how many distinct tags one collective invocation may
	// use internally (rounds x sub-channels). Algorithms whose round
	// count can exceed it (ring on very large communicators) wrap their
	// round tags with WrapTag.
	collSlots = 1 << 14
	// collWindow bounds how many consecutive collectives can have
	// messages in flight simultaneously before tags wrap.
	collWindow = 1 << 10
)

// CollTagBase allocates the tag window for the calling rank's next
// collective on this communicator. Built-in collectives call it once per
// invocation; exported so the designs built on point-to-point messages
// (dual-root, both arrival-aware designs) claim a window of their own.
// The window spans collSlots tags; WrapTag keeps per-round tags inside
// it.
func (c *Comm) CollTagBase(r *Rank) int {
	i := c.mustRank(r)
	s := c.seq[i]
	c.seq[i]++
	return userTagLimit + int(s%collWindow)*collSlots
}

// LeaderComm builds the communicator of the local-rank-localIdx process of
// every node (the "leader communicator" containing one same-index leader
// per node).
func (w *World) LeaderComm(localIdx int) *Comm {
	if localIdx < 0 || localIdx >= w.Job.PPN {
		panic(fmt.Sprintf("mpi: leader index %d out of range [0,%d)", localIdx, w.Job.PPN))
	}
	ranks := make([]int, w.Job.NodesUsed)
	for n := range ranks {
		ranks[n] = n*w.Job.PPN + localIdx
	}
	return w.NewComm(ranks)
}
