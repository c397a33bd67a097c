// Package core implements the paper's contribution: the Data
// Partitioning-based Multi-Leader (DPML) allreduce, its pipelined variant
// for very large messages, the SHArP-accelerated node-leader and
// socket-leader designs, and the selector designs that pick one of these
// per message size: the tuned library baselines (MVAPICH2, Intel MPI)
// used for comparison and the paper's hybrid.
package core

import (
	"fmt"
	"slices"

	"dpml/internal/fabric"
	"dpml/internal/mpi"
	"dpml/internal/shmseg"
	"dpml/internal/sim"
	"dpml/internal/trace"
)

// Design names one allreduce strategy.
type Design string

// Available designs.
const (
	// DesignFlat runs a single flat algorithm on the world communicator.
	DesignFlat Design = "flat"
	// DesignDPML is the paper's Data Partitioning-based Multi-Leader
	// allreduce (Section 4.1): Spec.Leaders leaders per node share the
	// intra-node reduction and drive concurrent inter-node allreduces on
	// data partitions. With Spec.Chunks > 1 it is DPML-Pipelined
	// (Section 4.2): each leader's partition is split into Chunks
	// sub-partitions reduced by interleaved non-blocking inter-node
	// allreduces.
	DesignDPML Design = "dpml"
	// DesignSharpNode offloads the inter-node reduction to the SHArP
	// switch tree with one leader per node (Section 4.3).
	DesignSharpNode Design = "sharp-node-leader"
	// DesignSharpSocket uses one SHArP leader per socket, avoiding
	// cross-socket gather/broadcast traffic (Section 4.3).
	DesignSharpSocket Design = "sharp-socket-leader"
	// DesignDualRoot is Träff's doubly-pipelined reduction-to-all: two
	// mirrored binary trees with roots at the first and last rank, each
	// reducing one half of the vector in Spec.Segments pipelined blocks
	// and broadcasting it back down while later blocks still flow up.
	DesignDualRoot Design = "dualroot"
	// DesignGenAll is the generalized (grouped) allreduce: contiguous
	// groups of Spec.Groups ranks ring-allreduce locally, group leaders
	// recursive-double across groups, and the result is broadcast within
	// each group. Groups=1 degenerates to flat recursive doubling,
	// Groups=p to a flat ring.
	DesignGenAll Design = "genall"
	// DesignPAPSorted is Proficz's sorted linear tree: the reduction
	// chain follows the predicted process-arrival order (earliest rank
	// first), overlapping the chain with the stragglers' delays, then
	// broadcasts from the last arriver.
	DesignPAPSorted Design = "pap-sorted"
	// DesignPAPRing runs the ring among the predicted-early ranks while
	// the stragglers are still delayed, folds the late contributions in
	// at the earliest rank, and broadcasts the final result.
	DesignPAPRing Design = "pap-ring"
)

// Spec fully describes one allreduce configuration.
type Spec struct {
	Design Design
	// Leaders is the DPML leader count per node (1..ppn). Leaders == 1
	// reproduces the traditional single-leader hierarchical design that
	// MVAPICH2-style libraries use.
	Leaders int
	// Chunks is DesignDPML's inter-node pipelining depth k: 0 for one
	// allreduce per leader, 2..1024 for DPML-Pipelined.
	Chunks int
	// Alg is the algorithm for DesignFlat ("" = recursive doubling) or
	// for unpipelined DesignDPML's inter-leader phase ("" = choose by
	// message size, like the host MPI library would). The pipelined
	// phase always runs its own Rabenseifner and takes none.
	Alg mpi.Algorithm
	// Segments is the per-half pipelining block count for
	// DesignDualRoot (0 = choose by message size, like Chunks-style
	// pipelining; clamped to the data length).
	Segments int
	// Groups is the group size g for DesignGenAll (0 = choose by
	// message size and job shape; clamped to [1, NumProcs]).
	Groups int
}

// String returns the spec's design name in ParseDesign's grammar.
func (s Spec) String() string {
	var name string
	switch s.Design {
	case DesignFlat:
		if s.Alg == "" || s.Alg == mpi.AlgRecursiveDoubling {
			return "flat"
		}
		return "flat:" + string(s.Alg)
	case DesignDPML:
		name = fmt.Sprintf("dpml-%d", s.Leaders)
		if s.Chunks > 1 {
			name = fmt.Sprintf("dpml-pipe-%dx%d", s.Leaders, s.Chunks)
		}
	case DesignSharpNode:
		return "sharp-node"
	case DesignSharpSocket:
		return "sharp-socket"
	case DesignDualRoot:
		if s.Segments == 0 {
			return "dualroot"
		}
		return fmt.Sprintf("dualroot-s%d", s.Segments)
	case DesignGenAll:
		if s.Groups == 0 {
			return "genall"
		}
		return fmt.Sprintf("genall-g%d", s.Groups)
	default:
		return string(s.Design)
	}
	if s.Alg != "" {
		name += ":" + string(s.Alg)
	}
	return name
}

// HostBased is the traditional single-leader hierarchical design
// ("host-based scheme" in the paper's SHArP comparison): DPML with one
// leader.
func HostBased() Spec { return Spec{Design: DesignDPML, Leaders: 1} }

// DPML returns a Spec for the multi-leader design with l leaders.
func DPML(l int) Spec { return Spec{Design: DesignDPML, Leaders: l} }

// DPMLPipelined returns a Spec for DPML with l leaders and k
// sub-partitions per leader; k == 1 is plain DPML(l).
func DPMLPipelined(l, k int) Spec {
	if k == 1 {
		return DPML(l)
	}
	return Spec{Design: DesignDPML, Leaders: l, Chunks: k}
}

// Flat returns a Spec running alg on the world communicator.
func Flat(alg mpi.Algorithm) Spec { return Spec{Design: DesignFlat, Alg: alg} }

// DualRoot returns a Spec for the dual-root doubly-pipelined tree with
// segments pipelining blocks per half (0 = size-adaptive).
func DualRoot(segments int) Spec { return Spec{Design: DesignDualRoot, Segments: segments} }

// GenAll returns a Spec for the generalized allreduce with groups of g
// ranks (0 = shape-adaptive).
func GenAll(g int) Spec { return Spec{Design: DesignGenAll, Groups: g} }

// PAPSorted returns a Spec for the arrival-sorted linear-tree allreduce.
func PAPSorted() Spec { return Spec{Design: DesignPAPSorted} }

// PAPRing returns a Spec for the arrival-aware early-ring allreduce.
func PAPRing() Spec { return Spec{Design: DesignPAPRing} }

// Engine holds the per-job state the designs need: the shared-memory
// regions, the per-leader-index communicators, and the SHArP groups.
// Build it once per World, before World.Run.
type Engine struct {
	W *mpi.World

	regions      []*shmseg.Region // per node
	leaderComms  []*mpi.Comm      // per local rank index
	leaderSocket []int            // socket of local rank j (uniform across nodes)
	socketLeader []int            // per local rank: its socket's leader local index
	socketSize   []int            // per socket-leader local index: ranks on that socket
	seq          []uint64         // per global rank: shm operation sequence

	sharpNode   *fabric.SharpGroup // one leader per node
	sharpSocket *fabric.SharpGroup // one leader per socket per node

	// Host-based fallback communicators, spanning exactly the members of
	// the matching SHArP group: when the offload goes offline mid-run
	// (fault injection), the leaders complete the inter-node reduction
	// with a host algorithm over these instead (see sharpOp).
	sharpNodeHost   *mpi.Comm
	sharpSocketHost *mpi.Comm
}

// NewEngine prepares DPML state for the world.
func NewEngine(w *mpi.World) *Engine {
	job := w.Job
	e := &Engine{W: w, seq: make([]uint64, job.NumProcs())}
	e.regions = make([]*shmseg.Region, job.NodesUsed)
	for i := range e.regions {
		e.regions[i] = shmseg.NewRegion(job.PPN)
	}
	e.leaderComms = make([]*mpi.Comm, job.PPN)
	for j := range e.leaderComms {
		e.leaderComms[j] = w.LeaderComm(j)
	}
	// Socket layout is uniform across nodes; read it off node 0.
	e.leaderSocket = make([]int, job.PPN)
	e.socketLeader = make([]int, job.PPN)
	firstOfSocket := map[int]int{}
	for local := 0; local < job.PPN; local++ {
		s := job.Place(local).Socket
		e.leaderSocket[local] = s
		if _, ok := firstOfSocket[s]; !ok {
			firstOfSocket[s] = local
		}
		e.socketLeader[local] = firstOfSocket[s]
	}
	e.socketSize = make([]int, job.PPN)
	for local := 0; local < job.PPN; local++ {
		e.socketSize[e.socketLeader[local]]++
	}
	if w.Sharp != nil {
		if g, err := w.Sharp.NewGroup(job.NodesUsed, 1); err == nil {
			e.sharpNode = g
			e.sharpNodeHost = e.leaderComms[0]
		}
		if g, err := w.Sharp.NewGroup(job.NodesUsed, len(firstOfSocket)); err == nil {
			e.sharpSocket = g
			// All socket leaders of all nodes, node-major: the same set
			// that joins each sharpSocket operation.
			var socketLeaders []int
			for node := 0; node < job.NodesUsed; node++ {
				for local := 0; local < job.PPN; local++ {
					if e.socketLeader[local] == local {
						socketLeaders = append(socketLeaders, node*job.PPN+local)
					}
				}
			}
			e.sharpSocketHost = w.NewComm(socketLeaders)
		}
	}
	return e
}

// SharpAvailable reports whether SHArP designs can run on this world.
func (e *Engine) SharpAvailable() bool { return e.sharpNode != nil }

// Validate reports whether the spec can run on this engine's world.
func (e *Engine) Validate(s Spec) error {
	ppn := e.W.Job.PPN
	if s.Alg != "" && !slices.Contains(mpi.FlatAlgorithms(), s.Alg) {
		return fmt.Errorf("core: unknown algorithm %q", s.Alg)
	}
	switch s.Design {
	case DesignFlat: // Alg, checked above, is its only parameter
	case DesignDPML:
		if s.Leaders < 1 || s.Leaders > ppn {
			return fmt.Errorf("core: %d leaders with ppn=%d", s.Leaders, ppn)
		}
		if s.Chunks != 0 && (s.Chunks < 2 || s.Chunks > 1024) {
			return fmt.Errorf("core: pipeline depth %d out of range [2,1024]", s.Chunks)
		}
		if s.Chunks > 1 && s.Alg != "" {
			return fmt.Errorf("core: design %q: the pipelined inter-leader phase takes no algorithm", s)
		}
	case DesignSharpNode, DesignSharpSocket:
		if !e.SharpAvailable() {
			return fmt.Errorf("core: %s requires SHArP, unavailable on %s",
				s, e.W.Job.Cluster.Name)
		}
	case DesignDualRoot:
		if s.Segments < 0 || s.Segments > 1024 {
			return fmt.Errorf("core: dualroot segments %d out of range [0,1024]", s.Segments)
		}
	case DesignGenAll:
		if s.Groups < 0 || s.Groups > e.W.Job.NumProcs() {
			return fmt.Errorf("core: genall group size %d out of range [0,%d]",
				s.Groups, e.W.Job.NumProcs())
		}
	case DesignPAPSorted, DesignPAPRing:
		// No parameters: the arrival schedule derives from the installed
		// fault plan (healthy fabrics degenerate to rank order).
	case DesignMVAPICH2, DesignIntelMPI, DesignProposed, DesignPAPAware:
		// Every pick of a selector passes Validate on every job
		// (TestResolvePicksConcreteSpecs), so Allreduce can resolve it
		// per message size.
	default:
		return fmt.Errorf("core: unknown design %q", s.Design)
	}
	return nil
}

// Allreduce performs one allreduce of vec (in place, every rank) with the
// given design; a selector runs, and is traced as, the spec it picks for
// vec's size. All ranks must call it collectively with the same spec.
func (e *Engine) Allreduce(r *mpi.Rank, s Spec, op *mpi.Op, vec *mpi.Vector) error {
	s = e.Resolve(s, vec.Bytes())
	if err := e.Validate(s); err != nil {
		return err
	}
	if err := checkOp(op, vec); err != nil {
		return err
	}
	rec := e.W.Tracer()
	coll := rec.BeginCollective(r.Rank(), s.String(), vec.Bytes(), r.Now())
	defer func() { coll.End(r.Now()) }()
	switch s.Design {
	case DesignFlat:
		alg := s.Alg
		if alg == "" {
			alg = mpi.AlgRecursiveDoubling
		}
		sp := rec.BeginSpan(r.Rank(), trace.PhaseFlat, r.Now())
		r.Allreduce(e.W.CommWorld(), alg, op, vec)
		sp.End(r.Now())
	case DesignDPML:
		e.dpml(r, op, vec, s)
	case DesignSharpNode:
		e.sharpAllreduce(r, op, vec, false)
	case DesignSharpSocket:
		e.sharpAllreduce(r, op, vec, true)
	case DesignDualRoot:
		e.dualRoot(r, op, vec, s.Segments)
	case DesignGenAll:
		sp := rec.BeginSpan(r.Rank(), trace.PhaseGroup, r.Now())
		e.genAll(r, op, vec, s.Groups)
		sp.End(r.Now())
	case DesignPAPSorted:
		sp := rec.BeginSpan(r.Rank(), trace.PhasePAP, r.Now())
		e.papSorted(r, op, vec)
		sp.End(r.Now())
	case DesignPAPRing:
		sp := rec.BeginSpan(r.Rank(), trace.PhasePAP, r.Now())
		e.papRing(r, op, vec)
		sp.End(r.Now())
	}
	return nil
}

// autoAlg mirrors a production library's dynamic choice for the
// inter-leader allreduce: latency-optimal recursive doubling for small
// payloads, bandwidth-optimal Rabenseifner beyond.
func autoAlg(bytes int) mpi.Algorithm {
	if bytes <= 4096 {
		return mpi.AlgRecursiveDoubling
	}
	return mpi.AlgRabenseifner
}

// nextSeq advances this rank's shm-region operation sequence.
func (e *Engine) nextSeq(r *mpi.Rank) uint64 {
	s := e.seq[r.Rank()]
	e.seq[r.Rank()]++
	return s
}

// gatherSync charges the leader-side synchronization cost of collecting
// contributions through shared memory: one flag poll per contributor,
// dearer when the contributor sits on the other socket. This per-rank
// serial cost at the leader is the intra-node bottleneck that motivates
// socket-level leaders (Section 4.3).
func (e *Engine) gatherSync(r *mpi.Rank, leaderLocal int, sameSocketOnly bool) {
	mem := e.W.Job.Cluster.Mem
	ls := e.leaderSocket[leaderLocal]
	var d sim.Duration
	for local := 0; local < e.W.Job.PPN; local++ {
		if local == leaderLocal {
			continue
		}
		if e.leaderSocket[local] == ls {
			d += mem.FlagSync
		} else if !sameSocketOnly {
			d += mem.FlagSyncCross
		}
	}
	if d > 0 {
		r.Proc().Sleep(d)
	}
}
