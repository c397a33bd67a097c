package core

import (
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// The paper's multi-HCA observation (Section 4.3): HCA-aware leader
// placement lets leaders on different sockets drive different rails.
// A dual-HCA node doubles the NIC-link capacity available to DPML's
// concurrent leaders, so large-message allreduce must get faster.

func TestDualHCAAcceleratesInterNodePhase(t *testing.T) {
	// With 16 leaders on one NIC the link (12 GB/s / 16 = 0.75 GB/s per
	// leader) binds; on two rails each leader's own pipe (1.1 GB/s)
	// binds instead, so Phase 3 must get ~1.4x faster. End-to-end time
	// moves less because the shm copy phases are HCA-independent.
	interOf := func(hcas int) sim.Duration {
		e, rec := tracedEngine(t, topology.ClusterB().WithHCAs(hcas), 4, 16)
		err := e.W.Run(func(r *mpi.Rank) error {
			return e.Allreduce(r, DPML(16), mpi.Sum, mpi.NewPhantom(mpi.Float32, 1<<20)) // 4 MB
		})
		if err != nil {
			t.Fatal(err)
		}
		return rankPhases(rec)[0][trace.PhaseInter]
	}
	one, two := interOf(1), interOf(2)
	if float64(two) > 0.85*float64(one) {
		t.Fatalf("dual-HCA inter phase (%d) not visibly faster than single (%d)", two, one)
	}
}

func TestHCAPlacementIsSocketAware(t *testing.T) {
	cl := topology.ClusterB().WithHCAs(2)
	job := topology.MustJob(cl, 1, 28)
	for local := 0; local < 28; local++ {
		p := job.Place(local)
		if p.HCA != p.Socket {
			t.Fatalf("local rank %d: socket %d attached to HCA %d", local, p.Socket, p.HCA)
		}
	}
}

func TestWithHCAsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithHCAs(0) accepted")
		}
	}()
	topology.ClusterB().WithHCAs(0)
}

func TestDualHCACorrectness(t *testing.T) {
	verifySpec(t, topology.ClusterB().WithHCAs(2), 3, 8, DPML(4), 257, 77)
}
