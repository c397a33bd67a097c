package core

import (
	"math"
	"math/rand"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

func TestDPMLReduceCorrect(t *testing.T) {
	for _, tc := range []struct {
		nodes, ppn, leaders, count, root int
	}{
		{3, 4, 2, 100, 0},
		{4, 4, 4, 257, 7},  // root mid-node
		{2, 8, 8, 64, 15},  // root last rank
		{5, 3, 3, 999, 11}, // non-power-of-two nodes
		{1, 6, 2, 50, 3},   // single node
		{4, 1, 1, 33, 2},   // single process per node
	} {
		e := buildEngine(t, topology.ClusterB(), tc.nodes, tc.ppn)
		p := e.W.Job.NumProcs()
		rng := rand.New(rand.NewSource(int64(tc.count)))
		in := make([][]float64, p)
		want := make([]float64, tc.count)
		for k := range in {
			in[k] = make([]float64, tc.count)
			for i := range in[k] {
				in[k][i] = float64(rng.Intn(100))
				want[i] += in[k][i]
			}
		}
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewVector(mpi.Float64, tc.count)
			copy(v.Float64s(), in[r.Rank()])
			if err := e.Reduce(r, DPML(tc.leaders), mpi.Sum, tc.root, v); err != nil {
				return err
			}
			if r.Rank() == tc.root {
				for i := 0; i < tc.count; i++ {
					if v.At(i) != want[i] {
						t.Errorf("%+v: root elem %d = %v, want %v", tc, i, v.At(i), want[i])
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

// TestDPMLReduceBufferReusableOnReturn pins Reduce as a blocking
// MPI_Reduce: once it returns, the caller may write its buffer, even
// though a leader may still be waiting on a slower local rank before it
// folds. Every rank writes the next iteration's input as soon as Reduce
// returns, and the last local rank of each node arrives late, so leaders
// fold after their fast peers have moved on.
func TestDPMLReduceBufferReusableOnReturn(t *testing.T) {
	const (
		nodes, ppn, leaders = 2, 4, 2
		count, iters, root  = 64, 4, 0
	)
	e := buildEngine(t, topology.ClusterB(), nodes, ppn)
	input := func(iter, rank int) float64 { return float64(1000*iter + rank + 1) }
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, count)
		v.Fill(input(0, r.Rank()))
		for it := 0; it < iters; it++ {
			if r.Place().LocalRank == ppn-1 {
				r.Compute(1 << 20)
			}
			if err := e.Reduce(r, DPML(leaders), mpi.Sum, root, v); err != nil {
				return err
			}
			if r.Rank() == root {
				p := nodes * ppn
				want := float64(1000*it*p + p*(p+1)/2)
				for i := 0; i < count; i++ {
					if v.At(i) != want {
						t.Errorf("iteration %d: root elem %d = %v, want %v", it, i, v.At(i), want)
						break
					}
				}
			}
			v.Fill(input(it+1, r.Rank()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDPMLBcastCorrect(t *testing.T) {
	for _, tc := range []struct {
		nodes, ppn, leaders, count, root int
	}{
		{3, 4, 2, 100, 0},
		{4, 4, 4, 257, 6},
		{2, 8, 4, 65, 9},
		{5, 3, 3, 999, 14},
		{1, 6, 3, 50, 5},
		{4, 1, 1, 33, 3},
	} {
		e := buildEngine(t, topology.ClusterB(), tc.nodes, tc.ppn)
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewVector(mpi.Float64, tc.count)
			if r.Rank() == tc.root {
				for i := 0; i < tc.count; i++ {
					v.Set(i, float64(1000+i))
				}
			}
			if err := e.Bcast(r, DPML(tc.leaders), tc.root, v); err != nil {
				return err
			}
			for i := 0; i < tc.count; i++ {
				if v.At(i) != float64(1000+i) {
					t.Errorf("%+v: rank %d elem %d = %v", tc, r.Rank(), i, v.At(i))
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

func TestReduceBcastValidation(t *testing.T) {
	e := buildEngine(t, topology.ClusterB(), 2, 4)
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, 4)
		if err := e.Reduce(r, Flat(mpi.AlgRing), mpi.Sum, 0, v); err == nil {
			t.Error("Reduce accepted a flat spec")
		}
		if err := e.Reduce(r, DPML(99), mpi.Sum, 0, v); err == nil {
			t.Error("Reduce accepted bad leaders")
		}
		if err := e.Reduce(r, DPML(1), mpi.Sum, 99, v); err == nil {
			t.Error("Reduce accepted bad root")
		}
		if err := e.Bcast(r, Flat(mpi.AlgRing), 0, v); err == nil {
			t.Error("Bcast accepted a flat spec")
		}
		if err := e.Bcast(r, DPML(1), -1, v); err == nil {
			t.Error("Bcast accepted bad root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiLeaderReduceBeatsSingleLeader(t *testing.T) {
	// The DPML structure must speed up plain Reduce too: leaders share
	// the intra-node reduction and run concurrent inter-node trees.
	timeOf := func(l int) int64 {
		e := buildEngine(t, topology.ClusterB(), 4, 16)
		var out int64
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, 1<<17) // 512 KB
			r.Barrier(e.W.CommWorld())
			start := r.Now()
			if err := e.Reduce(r, DPML(l), mpi.Sum, 0, v); err != nil {
				return err
			}
			r.Barrier(e.W.CommWorld())
			if r.Rank() == 0 {
				out = int64(r.Now().Sub(start))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, sixteen := timeOf(1), timeOf(16)
	if sixteen >= one {
		t.Fatalf("16-leader reduce (%d) not faster than 1-leader (%d) at 512KB", sixteen, one)
	}
}

func TestMultiLeaderBcastBeatsSingleLeader(t *testing.T) {
	// The Phase-4 claim applied standalone: concurrent per-leader
	// broadcasts beat the single-leader version for large payloads.
	timeOf := func(l int) int64 {
		e := buildEngine(t, topology.ClusterB(), 4, 16)
		var out int64
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, 1<<18) // 1 MB
			r.Barrier(e.W.CommWorld())
			start := r.Now()
			if err := e.Bcast(r, DPML(l), 0, v); err != nil {
				return err
			}
			r.Barrier(e.W.CommWorld())
			if r.Rank() == 0 {
				out = int64(r.Now().Sub(start))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, sixteen := timeOf(1), timeOf(16)
	if sixteen >= one {
		t.Fatalf("16-leader bcast (%d) not faster than 1-leader (%d) at 1MB", sixteen, one)
	}
}

// DPML allreduces read back from their phase spans: every rank records
// copy-in and bcast-out, only the leaders record intra-reduce and
// inter-leader, and tracing leaves the result intact.
func TestAllreduceProfiled(t *testing.T) {
	e, rec := tracedEngine(t, topology.ClusterB(), 4, 8)
	err := e.W.Run(func(r *mpi.Rank) error {
		if err := e.Allreduce(r, DPML(4), mpi.Sum, mpi.NewPhantom(mpi.Float32, 1<<16)); err != nil {
			return err
		}
		real := mpi.NewVector(mpi.Float64, 8)
		real.Fill(1)
		if err := e.Allreduce(r, DPML(2), mpi.Sum, real); err != nil {
			return err
		}
		if real.At(0) != float64(e.W.Job.NumProcs()) {
			t.Errorf("traced allreduce wrong: %v", real.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := rankPhases(rec)
	for rank := 0; rank < e.W.Job.NumProcs(); rank++ {
		pt := phases[rank]
		if pt[trace.PhaseCopy] <= 0 || pt[trace.PhaseBcast] <= 0 {
			t.Errorf("rank %d: copy/bcast phases empty: %v", rank, pt)
		}
		reduce, hasReduce := pt[trace.PhaseReduce]
		inter, hasInter := pt[trace.PhaseInter]
		if e.W.Job.Place(rank).LocalRank < 4 {
			if reduce <= 0 || inter <= 0 {
				t.Errorf("leader %d: reduce/inter phases empty: %v", rank, pt)
			}
		} else if hasReduce || hasInter {
			t.Errorf("non-leader %d: unexpected leader phases: %v", rank, pt)
		}
	}
}

// TestOpDatatypeMismatchFailsCleanly passes a float64-only user op with
// float32 payloads to every Engine entry point that reduces. Real and
// phantom payloads alike must get a clean error on every rank before
// any rank moves, not a panic inside a fold.
func TestOpDatatypeMismatchFailsCleanly(t *testing.T) {
	absmax := mpi.NewUserOp("absmax", func(a, b float64) float64 {
		return math.Max(math.Abs(a), math.Abs(b))
	})
	const want = "core: op absmax unsupported for float32"
	for _, c := range []struct {
		name string
		call func(e *Engine, r *mpi.Rank, v *mpi.Vector) error
	}{
		{"Allreduce", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
			return e.Allreduce(r, Spec{Design: DesignSharpNode}, absmax, v)
		}},
		{"Reduce", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
			return e.Reduce(r, DPML(2), absmax, 0, v)
		}},
		{"IAllreduce", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
			_, err := e.IAllreduce(r, DPML(2), absmax, v)
			return err
		}},
		{"AllreduceDPML", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
			return e.Allreduce(r, DPML(2), absmax, v)
		}},
	} {
		for _, phantom := range []bool{false, true} {
			e := buildEngine(t, topology.ClusterA(), 2, 4)
			err := e.W.Run(func(r *mpi.Rank) error {
				v := mpi.NewVector(mpi.Float32, 64)
				if phantom {
					v = mpi.NewPhantom(mpi.Float32, 64)
				}
				err := c.call(e, r, v)
				if err == nil || err.Error() != want {
					t.Errorf("%s phantom=%v rank %d: err %v, want %q", c.name, phantom, r.Rank(), err, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s phantom=%v: %v", c.name, phantom, err)
			}
			if now := e.W.Now(); now != 0 {
				t.Errorf("%s phantom=%v: ranks moved to %v before the error", c.name, phantom, now)
			}
		}
	}
}
