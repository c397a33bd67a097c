package core

import "dpml/internal/mpi"

// Selector designs. Each emulates an allreduce decision table (Section
// 6.4 compares against these): Engine.Allreduce runs, and traces, the
// concrete spec it picks for the message size (see Resolve).
const (
	// DesignMVAPICH2 emulates MVAPICH2-2.2: a shared-memory
	// single-leader hierarchy for small and medium messages (Section
	// 2.1's default design), switching to a flat bandwidth-optimal
	// algorithm for large ones.
	DesignMVAPICH2 Design = "mvapich2"
	// DesignIntelMPI emulates Intel MPI 2017: a single-leader hierarchy
	// at the smallest sizes, then flat recursive doubling, then flat
	// Rabenseifner with a lower switch point, which makes it stronger
	// than MVAPICH2 at large message sizes (as the paper's Figures 9-10
	// show).
	DesignIntelMPI Design = "intelmpi"
	// DesignProposed is the paper's design: the per-size best DPML /
	// DPML-Pipelined / SHArP configuration (the hybrid of Section 4).
	DesignProposed Design = "proposed"
	// DesignPAPAware extends the proposed selector with the
	// related-work families: under a predicted-imbalanced arrival
	// pattern it picks the arrival-aware designs (sorted linear tree
	// for latency-bound sizes, early-ring beyond), and on a balanced
	// fabric it falls back to the proposed hybrid. Kept out of
	// Libraries() so the committed baseline figures stay
	// byte-identical.
	DesignPAPAware Design = "pap-aware"
)

// Libraries returns the comparable baseline selectors in presentation
// order.
func Libraries() []Spec {
	return []Spec{{Design: DesignMVAPICH2}, {Design: DesignIntelMPI}, {Design: DesignProposed}}
}

// Resolve returns the spec that s runs for a message of the given size
// on this engine's job: a selector's pick, or s itself when it is
// concrete.
func (e *Engine) Resolve(s Spec, bytes int) Spec {
	switch s.Design {
	case DesignMVAPICH2:
		return mvapich2Spec(bytes)
	case DesignIntelMPI:
		return intelMPISpec(bytes)
	case DesignProposed:
		return e.proposedSpec(bytes)
	case DesignPAPAware:
		return e.papAwareSpec(bytes)
	}
	return s
}

func mvapich2Spec(bytes int) Spec {
	// MVAPICH2-2.2's shared-memory design (Section 2.1): one leader per
	// node aggregates through shm, the leaders run the size-appropriate
	// inter-node algorithm, and the result is broadcast through shm.
	// Keeping the single-leader hierarchy at every size is exactly the
	// behaviour the paper's Figures 4-7 improve on: the leader's
	// serialized ppn-1 reductions dominate at large sizes.
	if bytes <= 16<<10 {
		return HostBased()
	}
	return Spec{Design: DesignDPML, Leaders: 1, Alg: mpi.AlgRabenseifner}
}

func intelMPISpec(bytes int) Spec {
	// Intel MPI 2017's defaults: a shared-memory hierarchy only at the
	// smallest sizes, then flat bandwidth-optimal algorithms (recursive
	// halving/doubling). Keeping every rank in the inter-node algorithm
	// distributes the reduction compute across all cores, which is why
	// this baseline beats MVAPICH2's single-leader hierarchy at large
	// sizes (Figures 9c, 9d, 10) while still losing to DPML's concurrent
	// leader transfers.
	switch {
	case bytes <= 4<<10:
		return HostBased()
	case bytes <= 32<<10:
		return Flat(mpi.AlgRecursiveDoubling)
	default:
		return Flat(mpi.AlgRabenseifner)
	}
}

// proposedSpec is the paper's hybrid selector: SHArP for small messages
// when the fabric supports it, DPML with a size- and architecture-
// dependent leader count for medium and large messages, and pipelining
// when the per-leader partition would still sit in the bandwidth-bound
// zone (Section 4.2's very-large-message case).
func (e *Engine) proposedSpec(bytes int) Spec {
	ppn := e.W.Job.PPN
	if e.SharpAvailable() && bytes <= e.W.Sharp.MaxPayload()/4 {
		if ppn <= 2 {
			return Spec{Design: DesignSharpNode}
		}
		return Spec{Design: DesignSharpSocket}
	}
	l := BestLeaders(ppn, bytes)
	if l <= 1 && bytes <= 1<<10 {
		return HostBased()
	}
	// Pipeline when each leader's partition is still deep in Zone C.
	perLeader := bytes / l
	if perLeader >= 256<<10 {
		k := perLeader / (64 << 10)
		if k > 16 {
			k = 16
		}
		if k > 1 {
			return DPMLPipelined(l, k)
		}
	}
	return DPML(l)
}

// papAwareSpec selects for a predicted arrival pattern: when the
// installed fault plan marks stragglers, symmetric designs serialize
// behind the latest arriver, so the selector switches to the
// arrival-aware families — the sorted linear tree while the payload is
// latency-bound, the early-ring variant beyond, where the overlapped
// ring bandwidth matters. Balanced fabrics see the proposed hybrid
// unchanged.
func (e *Engine) papAwareSpec(bytes int) Spec {
	if plan := e.W.FaultPlan(); plan != nil && len(plan.Stragglers) > 0 {
		if bytes <= 4<<10 {
			return PAPSorted()
		}
		return PAPRing()
	}
	return e.proposedSpec(bytes)
}

// BestLeaders returns the empirically tuned DPML leader count for a ppn
// and message size — the per-size winner map produced by the Section 6.4
// tuning sweep (examples/tuning regenerates it): one leader at small
// sizes (parallelizing tiny reductions does not pay), growing leader
// counts through the transition zone, and 16 leaders (capped by ppn) for
// Zone-C messages. The calibrated simulator's winner map coincides
// across the four fabrics, so the table takes no cluster.
func BestLeaders(ppn, bytes int) int {
	capPPN := func(l int) int {
		if l > ppn {
			return ppn
		}
		return l
	}
	switch {
	case bytes <= 256:
		return 1
	case bytes <= 2<<10:
		return capPPN(4)
	case bytes <= 16<<10:
		return capPPN(8)
	default:
		return capPPN(16)
	}
}
