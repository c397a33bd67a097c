// Package shmseg models the per-node shared-memory regions the DPML
// algorithm communicates through: each leader owns a segment with one
// slot per local rank (Phase 1 gathers partitions into the slots), an
// accumulator the leader folds them into (Phase 2), and a result slot
// (Phase 3's reduced value, read back by every local rank in Phase 4).
//
// The region carries data and synchronization only; the *cost* of each
// copy is charged separately through the fabric's memory channel by the
// caller. A local rank opens each operation it takes part in with
// Region.Open and holds the returned *Op until it calls Done. Every
// local rank opens the same operations in the same order (one per
// collective call); the region counts each rank's opens, so the n-th
// Open of every rank returns the same operation, and back-to-back
// collectives can overlap without aliasing.
//
// Put stores the depositing rank's own buffer, not a copy: a leader
// reads its peers' partitions in place, as a process-shared address
// space lets it. The rule that makes this safe is that a deposited
// buffer stays read-only until the operation no longer reads it, that
// is until its leader has folded it. An allreduce, whose ranks all wait
// for every leader's result before they return, keeps the rule by
// construction:
//   - a rank writes partition j of its buffer only when copying leader
//     j's result out, which is after leader j publishes;
//   - leader j publishes only after it has folded every slot of its
//     segment.
package shmseg

import (
	"fmt"

	"dpml/internal/mpi"
	"dpml/internal/race"
	"dpml/internal/sim"
)

// Region is one node's shared-memory scratch space. Operation state is
// recycled: when the last local rank's Done drains an operation, its
// segments, signals, slot arrays, view headers and accumulators go to a
// free list that later operations draw from.
type Region struct {
	ppn  int
	next []uint64       // next[i] is local rank i's next operation
	ops  map[uint64]*Op // open operations by sequence number
	free []*Op
}

// Op is one shared-memory operation of a region, as Region.Open returns
// it. Its segments are indexed by leader.
type Op struct {
	rg      *Region
	seq     uint64
	segs    []segment // per leader
	drained int       // ranks that called Done
	open    bool      // false once drained: a stale Done panics
}

// segment is one leader's share of an operation.
type segment struct {
	seq    uint64
	leader int
	slots  []*mpi.Vector // slots[i] is local rank i's partition
	views  []*mpi.Vector // View headers per local rank, kept across recycling
	acc    *mpi.Vector   // accumulator storage, kept across recycling
	filled int           // slots written
	want   int           // slots the leader's ArmGather needs
	gather sim.Signal    // fired when a slot is written
	result *mpi.Vector   // the fully reduced partition
	ready  sim.Signal    // fired when the result lands
}

// gatherWait and resultWait are a segment's two wait conditions. The
// scheduler checks Ready on every wakeup; String is formatted only when
// a deadlock or watchdog report is built.
type (
	gatherWait segment
	resultWait segment
)

func (s *gatherWait) Ready() bool { return s.filled >= s.want }

func (s *gatherWait) String() string {
	return fmt.Sprintf("shm gather op=%d leader=%d", s.seq, s.leader)
}

func (s *resultWait) Ready() bool { return s.result != nil }

func (s *resultWait) String() string {
	return fmt.Sprintf("shm result op=%d leader=%d", s.seq, s.leader)
}

// NewRegion builds the region for a node with ppn local ranks.
func NewRegion(ppn int) *Region {
	if ppn <= 0 {
		panic(fmt.Sprintf("shmseg: NewRegion(%d)", ppn))
	}
	return &Region{ppn: ppn, next: make([]uint64, ppn), ops: make(map[uint64]*Op)}
}

// Open returns local rank localRank's next operation, with one segment
// per leader, creating it if localRank is the first local rank to open
// it. Every local rank must open the same operations in the same order,
// with the same leader count, and call Done on each once.
func (rg *Region) Open(localRank, leaders int) *Op {
	if localRank < 0 || localRank >= rg.ppn {
		panic(fmt.Sprintf("shmseg: Open local rank %d of %d", localRank, rg.ppn))
	}
	seq := rg.next[localRank]
	rg.next[localRank]++
	op, ok := rg.ops[seq]
	if !ok {
		op = rg.newOp(seq, leaders)
		rg.ops[seq] = op
	}
	if len(op.segs) != leaders {
		panic(fmt.Sprintf("shmseg: op %d leader count disagreement: %d vs %d", seq, len(op.segs), leaders))
	}
	return op
}

// newOp takes drained operation state from the free list, or builds it.
func (rg *Region) newOp(seq uint64, leaders int) *Op {
	var op *Op
	if i := len(rg.free) - 1; i >= 0 {
		op = rg.free[i]
		rg.free[i] = nil
		rg.free = rg.free[:i]
	} else {
		op = &Op{rg: rg}
	}
	op.seq, op.open = seq, true
	if cap(op.segs) < leaders {
		op.segs = make([]segment, leaders)
	}
	op.segs = op.segs[:leaders]
	for j := range op.segs {
		sg := &op.segs[j]
		sg.seq, sg.leader = seq, j
		if sg.slots == nil {
			sg.slots = make([]*mpi.Vector, rg.ppn)
		}
	}
	return op
}

// View returns elements [lo, hi) of vec through local rank localRank's
// view header in leader j's segment. The header is segment storage kept
// across recycled operations, so a warmed region makes views without
// allocating, and it stays valid until the operation drains: as a
// deposited partition (Put), and as the phantom accumulator and result
// that Accumulator takes from it. A rank that copies a result out
// through its deposited view re-points the header at the range it
// already holds, which leaves the deposit intact.
func (op *Op) View(j, localRank int, vec *mpi.Vector, lo, hi int) *mpi.Vector {
	sg := &op.segs[j]
	if sg.views == nil {
		sg.views = make([]*mpi.Vector, op.rg.ppn)
	}
	sg.views[localRank] = vec.SliceInto(sg.views[localRank], lo, hi)
	return sg.views[localRank]
}

// Put deposits local rank localRank's partition for leader j. The vector
// is stored by reference, not copied: the caller must not write it until
// leader j has folded it, which a caller that waits for leader j's
// published result guarantees (see the package doc). The copy cost must
// already have been charged.
func (op *Op) Put(j, localRank int, part *mpi.Vector) {
	if j < 0 || j >= len(op.segs) {
		panic(fmt.Sprintf("shmseg: Put leader %d of %d", j, len(op.segs)))
	}
	if localRank < 0 || localRank >= op.rg.ppn {
		panic(fmt.Sprintf("shmseg: Put local rank %d of %d", localRank, op.rg.ppn))
	}
	sg := &op.segs[j]
	if sg.slots[localRank] != nil {
		panic(fmt.Sprintf("shmseg: op %d slot (%d,%d) written twice", op.seq, j, localRank))
	}
	sg.slots[localRank] = part
	sg.filled++
	sg.gather.FireAll()
}

// ArmGather returns leader j's slot array in local-rank order (entries
// of ranks that did not contribute are nil) and whether want slots are
// already written; otherwise it arms p to park until they are (see
// sim.Proc.Park). DPML leaders wait for all ppn local ranks; socket
// leaders wait only for the ranks of their socket. The array is reused
// once the operation drains.
func (op *Op) ArmGather(p *sim.Proc, j, want int) ([]*mpi.Vector, bool) {
	if want <= 0 || want > op.rg.ppn {
		panic(fmt.Sprintf("shmseg: ArmGather want %d of %d", want, op.rg.ppn))
	}
	sg := &op.segs[j]
	sg.want = want
	return sg.slots, sg.gather.ArmWaitUntil(p, (*gatherWait)(sg))
}

// Accumulator returns leader j's accumulator loaded with a copy of src.
// Its storage belongs to the segment and is reused by later operations
// once this one drains, so a warmed region folds without allocating; a
// change of datatype or length reallocates it. Each segment's
// accumulator is taken at most once per operation. A phantom src carries
// no data and is returned as is.
func (op *Op) Accumulator(j int, src *mpi.Vector) *mpi.Vector {
	if src.Phantom() {
		return src
	}
	sg := &op.segs[j]
	if a := sg.acc; a != nil && a.Type() == src.Type() && a.Len() == src.Len() {
		a.CopyFrom(src)
	} else {
		sg.acc = src.Clone()
	}
	return sg.acc
}

// Publish stores leader j's fully reduced partition and wakes the local
// ranks waiting to copy it out.
func (op *Op) Publish(j int, result *mpi.Vector) {
	sg := &op.segs[j]
	if sg.result != nil {
		panic(fmt.Sprintf("shmseg: op %d leader %d published twice", op.seq, j))
	}
	sg.result = result
	sg.ready.FireAll()
}

// ArmResult returns leader j's result if it is published, and otherwise
// nil, with p armed to park until it is (see sim.Proc.Park). A proc
// woken from that wait calls ArmResult again, which then returns the
// result. The caller charges its own copy-out cost.
func (op *Op) ArmResult(p *sim.Proc, j int) *mpi.Vector {
	sg := &op.segs[j]
	sg.ready.ArmWaitUntil(p, (*resultWait)(sg))
	return sg.result
}

// Done signals that one local rank has copied every result out of the
// operation and drops its handle; the last local rank's call drains the
// operation and recycles its state, accumulators included. The race
// build poisons the accumulators here, so a rank that reads one after
// draining fails its check. Done on a drained operation panics.
func (op *Op) Done() {
	rg := op.rg
	if !op.open {
		panic(fmt.Sprintf("shmseg: Done on drained op %d", op.seq))
	}
	op.drained++
	if op.drained < rg.ppn {
		return
	}
	delete(rg.ops, op.seq)
	for j := range op.segs {
		sg := &op.segs[j]
		clear(sg.slots)
		sg.filled, sg.result = 0, nil
		if race.Enabled && sg.acc != nil {
			sg.acc.Poison()
		}
	}
	op.drained, op.open = 0, false
	rg.free = append(rg.free, op)
}
