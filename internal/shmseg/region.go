// Package shmseg models the per-node shared-memory regions the DPML
// algorithm communicates through: each leader owns a segment with one
// slot per local rank (Phase 1 gathers partitions into the slots), an
// accumulator the leader folds them into (Phase 2), and a result slot
// (Phase 3's reduced value, read back by every local rank in Phase 4).
//
// The region carries data and synchronization only; the *cost* of each
// copy is charged separately through the fabric's memory channel by the
// caller. Operations are identified by a sequence number that all local
// ranks advance in lockstep (one per collective call), so back-to-back
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
// recycled: when DoneCopy drains an operation its segments, signals,
// slot arrays, view headers and accumulators go to a free list that
// later operations draw from.
type Region struct {
	ppn  int
	ops  map[uint64]*opState
	free []*opState
}

type opState struct {
	segs    []segment // per leader
	drained int       // ranks that finished copying out
}

// segment is one leader's share of an operation.
type segment struct {
	seq    uint64
	leader int
	slots  []*mpi.Vector // slots[i] is local rank i's partition
	views  []*mpi.Vector // View headers per local rank, kept across recycling
	acc    *mpi.Vector   // accumulator storage, kept across recycling
	filled int           // slots written
	want   int           // slots the leader's GatherWait needs
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
	return &Region{ppn: ppn, ops: make(map[uint64]*opState)}
}

// PPN returns the number of local ranks the region serves.
func (rg *Region) PPN() int { return rg.ppn }

// PendingOps returns the number of in-flight operations (useful for leak
// checks in tests).
func (rg *Region) PendingOps() int { return len(rg.ops) }

func (rg *Region) op(seq uint64, leaders int) *opState {
	st, ok := rg.ops[seq]
	if !ok {
		st = rg.newOp(seq, leaders)
		rg.ops[seq] = st
	}
	if len(st.segs) != leaders {
		panic(fmt.Sprintf("shmseg: op %d leader count disagreement: %d vs %d", seq, len(st.segs), leaders))
	}
	return st
}

// newOp takes drained operation state from the free list, or builds it.
func (rg *Region) newOp(seq uint64, leaders int) *opState {
	var st *opState
	if i := len(rg.free) - 1; i >= 0 {
		st = rg.free[i]
		rg.free[i] = nil
		rg.free = rg.free[:i]
	} else {
		st = &opState{}
	}
	if cap(st.segs) < leaders {
		st.segs = make([]segment, leaders)
	}
	st.segs = st.segs[:leaders]
	for j := range st.segs {
		sg := &st.segs[j]
		sg.seq, sg.leader = seq, j
		if sg.slots == nil {
			sg.slots = make([]*mpi.Vector, rg.ppn)
		}
	}
	return st
}

// seg returns leader's segment of operation seq.
func (rg *Region) seg(seq uint64, leaders, leader int) *segment {
	return &rg.op(seq, leaders).segs[leader]
}

// View returns elements [lo, hi) of vec through local rank localRank's
// view header in leader's segment of operation seq. The header is
// segment storage kept across recycled operations, so a warmed region
// makes views without allocating, and it stays valid until the operation
// drains: as a deposited partition (Put), and as the phantom accumulator
// and result that Accumulator takes from it. A rank that copies a result
// out through its deposited view re-points the header at the range it
// already holds, which leaves the deposit intact.
func (rg *Region) View(seq uint64, leaders, leader, localRank int, vec *mpi.Vector, lo, hi int) *mpi.Vector {
	sg := rg.seg(seq, leaders, leader)
	if sg.views == nil {
		sg.views = make([]*mpi.Vector, rg.ppn)
	}
	sg.views[localRank] = vec.SliceInto(sg.views[localRank], lo, hi)
	return sg.views[localRank]
}

// Put deposits local rank localRank's partition for leader into operation
// seq. The vector is stored by reference, not copied: the caller must not
// write it until leader has folded it, which a caller that waits for
// leader's published result guarantees (see the package doc). The copy
// cost must already have been charged.
func (rg *Region) Put(seq uint64, leaders, leader, localRank int, part *mpi.Vector) {
	if leader < 0 || leader >= leaders {
		panic(fmt.Sprintf("shmseg: Put leader %d of %d", leader, leaders))
	}
	if localRank < 0 || localRank >= rg.ppn {
		panic(fmt.Sprintf("shmseg: Put local rank %d of %d", localRank, rg.ppn))
	}
	sg := rg.seg(seq, leaders, leader)
	if sg.slots[localRank] != nil {
		panic(fmt.Sprintf("shmseg: op %d slot (%d,%d) written twice", seq, leader, localRank))
	}
	sg.slots[localRank] = part
	sg.filled++
	sg.gather.FireAll()
}

// GatherWait parks the leader's proc until want slots of its segment are
// written, then returns the slot array in local-rank order (entries of
// ranks that did not contribute are nil). DPML leaders wait for all ppn
// local ranks; socket leaders wait only for the ranks of their socket.
// The array is reused once the operation drains (see DoneCopy).
func (rg *Region) GatherWait(p *sim.Proc, seq uint64, leaders, leader, want int) []*mpi.Vector {
	slots, ok := rg.ArmGather(p, seq, leaders, leader, want)
	if !ok {
		p.Park()
	}
	return slots
}

// ArmGather is GatherWait's arm form (see sim.Proc.Park): it returns
// the slot array and whether want slots are already written, and
// otherwise arms p to park until they are.
func (rg *Region) ArmGather(p *sim.Proc, seq uint64, leaders, leader, want int) ([]*mpi.Vector, bool) {
	if want <= 0 || want > rg.ppn {
		panic(fmt.Sprintf("shmseg: GatherWait want %d of %d", want, rg.ppn))
	}
	sg := rg.seg(seq, leaders, leader)
	sg.want = want
	return sg.slots, sg.gather.ArmWaitUntil(p, (*gatherWait)(sg))
}

// Accumulator returns leader's accumulator for operation seq loaded with
// a copy of src. Its storage belongs to the segment and is reused by
// later operations once this one drains (see DoneCopy), so a warmed
// region folds without allocating; a change of datatype or length
// reallocates it. Each segment's accumulator is taken at most once per
// operation. A phantom src carries no data and is returned as is.
func (rg *Region) Accumulator(seq uint64, leaders, leader int, src *mpi.Vector) *mpi.Vector {
	if src.Phantom() {
		return src
	}
	sg := rg.seg(seq, leaders, leader)
	if a := sg.acc; a != nil && a.Type() == src.Type() && a.Len() == src.Len() {
		a.CopyFrom(src)
	} else {
		sg.acc = src.Clone()
	}
	return sg.acc
}

// Publish stores leader's fully reduced partition and wakes the local
// ranks waiting to copy it out.
func (rg *Region) Publish(seq uint64, leaders, leader int, result *mpi.Vector) {
	sg := rg.seg(seq, leaders, leader)
	if sg.result != nil {
		panic(fmt.Sprintf("shmseg: op %d leader %d published twice", seq, leader))
	}
	sg.result = result
	sg.ready.FireAll()
}

// ResultWait parks the proc until leader's result is published and
// returns it. The caller charges its own copy-out cost.
func (rg *Region) ResultWait(p *sim.Proc, seq uint64, leaders, leader int) *mpi.Vector {
	if res := rg.ArmResult(p, seq, leaders, leader); res != nil {
		return res
	}
	p.Park()
	return rg.seg(seq, leaders, leader).result
}

// ArmResult is ResultWait's arm form (see sim.Proc.Park): it returns
// leader's result if it is published, and otherwise nil, with p armed
// to park until it is. A proc woken from that wait calls ArmResult
// again, which then returns the result.
func (rg *Region) ArmResult(p *sim.Proc, seq uint64, leaders, leader int) *mpi.Vector {
	sg := rg.seg(seq, leaders, leader)
	sg.ready.ArmWaitUntil(p, (*resultWait)(sg))
	return sg.result
}

// DoneCopy signals that one local rank has copied every result out of
// operation seq; the last call drains the operation and recycles its
// state, accumulators included. The race build poisons the accumulators
// here, so a rank that reads one after draining fails its check.
func (rg *Region) DoneCopy(seq uint64) {
	st, ok := rg.ops[seq]
	if !ok {
		panic(fmt.Sprintf("shmseg: DoneCopy on unknown op %d", seq))
	}
	st.drained++
	if st.drained < rg.ppn {
		return
	}
	delete(rg.ops, seq)
	for j := range st.segs {
		sg := &st.segs[j]
		clear(sg.slots)
		sg.filled, sg.result = 0, nil
		if race.Enabled && sg.acc != nil {
			sg.acc.Poison()
		}
	}
	st.drained = 0
	rg.free = append(rg.free, st)
}
