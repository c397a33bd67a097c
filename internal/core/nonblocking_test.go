package core

import (
	"strings"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

func TestIAllreduceCorrect(t *testing.T) {
	for _, tc := range []struct{ nodes, ppn, leaders, count int }{
		{3, 4, 2, 100},
		{4, 8, 8, 257},
		{2, 1, 1, 64}, // ppn==1 direct path
		{5, 3, 3, 999},
	} {
		e := buildEngine(t, topology.ClusterB(), tc.nodes, tc.ppn)
		p := e.W.Job.NumProcs()
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewVector(mpi.Float64, tc.count)
			v.Fill(float64(r.Rank() + 1))
			h, err := e.IAllreduce(r, DPML(tc.leaders), mpi.Sum, v)
			if err != nil {
				return err
			}
			// Overlap window: unrelated compute between start and wait.
			r.Compute(64 << 10)
			if h.Done() {
				t.Error("handle done before Wait")
			}
			if err := h.Wait(r); err != nil {
				return err
			}
			if !h.Done() {
				t.Error("handle not done after Wait")
			}
			want := float64(p * (p + 1) / 2)
			for i := 0; i < tc.count; i++ {
				if v.At(i) != want {
					t.Errorf("%+v: rank %d elem %d = %v, want %v", tc, r.Rank(), i, v.At(i), want)
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestIAllreduceOverlapsCompute(t *testing.T) {
	// Interleaving independent compute between IAllreduce and Wait must
	// be cheaper than blocking-allreduce-then-compute, because Phase 1's
	// shared-memory deposits of OTHER ranks proceed during this rank's
	// compute (the leaders start gathering earlier).
	const computeBytes = 2 << 20
	run := func(nonblocking bool) sim.Duration {
		e := buildEngine(t, topology.ClusterB(), 4, 16)
		var out sim.Duration
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, 1<<18) // 1 MB
			r.Barrier(e.W.CommWorld())
			start := r.Now()
			if nonblocking {
				h, err := e.IAllreduce(r, DPML(16), mpi.Sum, v)
				if err != nil {
					return err
				}
				r.Compute(computeBytes)
				if err := h.Wait(r); err != nil {
					return err
				}
			} else {
				if err := e.Allreduce(r, DPML(16), mpi.Sum, v); err != nil {
					return err
				}
				r.Compute(computeBytes)
			}
			r.Barrier(e.W.CommWorld())
			if r.Rank() == 0 {
				out = r.Now().Sub(start)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	blocking, nb := run(false), run(true)
	if nb >= blocking {
		t.Fatalf("non-blocking (%v) not faster than blocking+compute (%v)", nb, blocking)
	}
}

func TestIAllreduceValidation(t *testing.T) {
	e := buildEngine(t, topology.ClusterB(), 2, 2)
	err := e.W.Run(func(r *mpi.Rank) error {
		if _, err := e.IAllreduce(r, Flat(mpi.AlgRing), mpi.Sum, mpi.NewPhantom(mpi.Float32, 4)); err == nil {
			t.Error("flat spec accepted")
		}
		if _, err := e.IAllreduce(r, DPML(99), mpi.Sum, mpi.NewPhantom(mpi.Float32, 4)); err == nil {
			t.Error("bad leaders accepted")
		}
		// Double Wait rejected.
		v := mpi.NewPhantom(mpi.Float32, 16)
		h, err := e.IAllreduce(r, DPML(2), mpi.Sum, v)
		if err != nil {
			return err
		}
		if err := h.Wait(r); err != nil {
			return err
		}
		if err := h.Wait(r); err == nil {
			t.Error("second Wait accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIAllreducePipelinedSpec(t *testing.T) {
	e := buildEngine(t, topology.ClusterC(), 4, 4)
	p := e.W.Job.NumProcs()
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, 500)
		v.Fill(1)
		h, err := e.IAllreduce(r, DPMLPipelined(4, 4), mpi.Sum, v)
		if err != nil {
			return err
		}
		if err := h.Wait(r); err != nil {
			return err
		}
		if v.At(499) != float64(p) {
			t.Errorf("got %v, want %d", v.At(499), p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIAllreduceWaitOnWrongRank hands every rank its neighbour's handle
// first: Wait must refuse it without touching the operation, and the
// rank's own Wait must still complete the allreduce.
func TestIAllreduceWaitOnWrongRank(t *testing.T) {
	e := buildEngine(t, topology.ClusterB(), 2, 4)
	p := e.W.Job.NumProcs()
	handles := make([]*NBHandle, p)
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, 40)
		v.Fill(float64(r.Rank() + 1))
		h, err := e.IAllreduce(r, DPML(2), mpi.Sum, v)
		if err != nil {
			return err
		}
		handles[r.Rank()] = h
		r.Barrier(e.W.CommWorld())
		other := handles[(r.Rank()+1)%p]
		if err := other.Wait(r); err == nil || !strings.Contains(err.Error(), "started on rank") {
			t.Errorf("rank %d: Wait on rank %d's handle returned %v", r.Rank(), (r.Rank()+1)%p, err)
		}
		if err := h.Wait(r); err != nil {
			return err
		}
		if want := float64(p * (p + 1) / 2); v.At(39) != want {
			t.Errorf("rank %d: got %v, want %v", r.Rank(), v.At(39), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
