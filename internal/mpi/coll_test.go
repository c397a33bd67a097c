package mpi

import (
	"fmt"
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

func TestBarrierSynchronizes(t *testing.T) {
	for _, procs := range []struct{ nodes, ppn int }{{1, 1}, {2, 2}, {3, 3}, {4, 7}} {
		w := smallWorld(t, topology.ClusterB(), procs.nodes, procs.ppn, Config{})
		n := w.Job.NumProcs()
		after := make([]sim.Time, n)
		err := w.Run(func(r *Rank) error {
			// Stagger arrivals; everyone must leave at or after the last
			// arrival.
			r.Proc().Sleep(sim.Duration(r.Rank()) * 10 * sim.Microsecond)
			r.Barrier(w.CommWorld())
			after[r.Rank()] = r.Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		lastArrival := sim.Time(sim.Duration(n-1) * 10 * sim.Microsecond)
		for i, ts := range after {
			if ts < lastArrival {
				t.Fatalf("%d procs: rank %d left barrier at %v before last arrival %v",
					n, i, ts, lastArrival)
			}
		}
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, root := range []int{0, 1, 5} {
		w := smallWorld(t, topology.ClusterB(), 3, 2, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			v := NewVector(Float64, 64)
			if c.RankOf(r) == root {
				v.Fill(42)
			}
			r.Bcast(c, root, v)
			if v.At(63) != 42 {
				t.Errorf("root %d: rank %d got %v", root, r.Rank(), v.At(63))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBcastBadRootPanics(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		defer func() {
			if recover() == nil {
				t.Error("Bcast with bad root did not panic")
			}
		}()
		r.Bcast(w.CommWorld(), 7, NewVector(Float64, 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 3, Config{})
	const root = 2
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Int64, 4)
		v.Fill(float64(r.Rank()))
		out := NewVector(Int64, 4*c.Size())
		r.Gather(c, root, v, out)
		if c.RankOf(r) == root {
			for i := 0; i < c.Size(); i++ {
				if out.At(i*4+3) != float64(i) {
					t.Errorf("gather block %d = %v", i, out.At(i*4+3))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, size := range []struct{ nodes, ppn int }{{1, 1}, {2, 1}, {3, 2}, {2, 4}} {
		w := smallWorld(t, topology.ClusterB(), size.nodes, size.ppn, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			v := NewVector(Float64, 3)
			v.Fill(float64(r.Rank() + 1))
			out := NewVector(Float64, 3*c.Size())
			r.Allgather(c, v, out)
			for i := 0; i < c.Size(); i++ {
				if out.At(i*3) != float64(i+1) {
					t.Errorf("p=%d: allgather block %d = %v, want %d",
						c.Size(), i, out.At(i*3), i+1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceScatterBlock(t *testing.T) {
	for _, size := range []struct{ nodes, ppn int }{{2, 1}, {2, 2}, {5, 1}} {
		w := smallWorld(t, topology.ClusterB(), size.nodes, size.ppn, Config{})
		p := w.Job.NumProcs()
		const bl = 4
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			in := NewVector(Int64, p*bl)
			for i := 0; i < in.Len(); i++ {
				in.Set(i, float64((r.Rank()+1)*(i+1)))
			}
			out := NewVector(Int64, bl)
			r.ReduceScatterBlock(c, Sum, in, out)
			me := c.RankOf(r)
			// Expected: sum over ranks k of (k+1)*(me*bl+j+1).
			sumRanks := p * (p + 1) / 2
			for j := 0; j < bl; j++ {
				want := float64(sumRanks * (me*bl + j + 1))
				if out.At(j) != want {
					t.Errorf("p=%d rank %d elem %d: got %v want %v", p, me, j, out.At(j), want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLeaderComm(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 3, 4, Config{})
	lc := w.LeaderComm(2)
	if lc.Size() != 3 {
		t.Fatalf("leader comm size %d", lc.Size())
	}
	for n := 0; n < 3; n++ {
		if lc.Global(n) != n*4+2 {
			t.Fatalf("leader comm node %d = global %d", n, lc.Global(n))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LeaderComm(ppn) must panic")
		}
	}()
	w.LeaderComm(4)
}

func TestCommValidation(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	cases := []func(){
		func() { w.NewComm(nil) },
		func() { w.NewComm([]int{0, 0}) },
		func() { w.NewComm([]int{0, 99}) },
		func() { w.NewComm([]int{-1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
	c := w.NewComm([]int{3, 1})
	if c.Global(0) != 3 || c.Global(1) != 1 {
		t.Fatal("comm rank order not preserved")
	}
	if !c.Contains(1) || c.Contains(0) {
		t.Fatal("Contains wrong")
	}
	if c.RankOf(w.Rank(1)) != 1 || c.RankOf(w.Rank(0)) != -1 {
		t.Fatal("RankOf wrong")
	}
}

func TestCollectiveOnSubcommunicator(t *testing.T) {
	// Only members participate; non-members do unrelated work.
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	sub := w.NewComm([]int{1, 3})
	err := w.Run(func(r *Rank) error {
		if sub.RankOf(r) < 0 {
			return nil
		}
		v := NewVector(Int64, 8)
		v.Fill(float64(r.Rank()))
		r.Allreduce(sub, AlgRecursiveDoubling, Sum, v)
		if v.At(0) != 4 { // 1 + 3
			t.Errorf("subcomm allreduce got %v, want 4", v.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyBackToBackCollectivesTagSafety(t *testing.T) {
	// More consecutive collectives than the tag window would naively
	// allow; sequence-number recycling must stay correct.
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		for iter := 0; iter < 50; iter++ {
			v := NewVector(Int64, 16)
			v.Fill(float64(r.Rank() + iter))
			r.Allreduce(c, AlgRecursiveDoubling, Sum, v)
			want := float64(4*iter + 6) // sum of (rank+iter) over ranks 0..3
			if v.At(0) != want {
				return fmt.Errorf("iter %d: got %v, want %v", iter, v.At(0), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSplit(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 3, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		me := c.RankOf(r)
		// Even/odd split, reverse-rank key ordering.
		sub := c.Split(r, me%2, -me)
		if sub == nil {
			t.Errorf("rank %d got nil comm", me)
			return nil
		}
		if sub.Size() != 3 {
			t.Errorf("rank %d: sub size %d, want 3", me, sub.Size())
		}
		// Reverse key order: highest parent rank first.
		want := []int{4, 2, 0}
		if me%2 == 1 {
			want = []int{5, 3, 1}
		}
		for i, g := range want {
			if sub.Global(i) != g {
				t.Errorf("rank %d: sub[%d] = %d, want %d", me, i, sub.Global(i), g)
			}
		}
		// The sub-communicator must actually work for collectives:
		// interning means all members share one comm object.
		v := NewVector(Int64, 1)
		v.Fill(float64(me))
		r.Allreduce(sub, AlgRecursiveDoubling, Sum, v)
		wantSum := 0.0
		for _, g := range want {
			wantSum += float64(g)
		}
		if v.At(0) != wantSum {
			t.Errorf("rank %d: allreduce on split = %v, want %v", me, v.At(0), wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSplitUndefinedColor(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		me := c.RankOf(r)
		color := 0
		if me == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := c.Split(r, color, me)
		if me == 3 {
			if sub != nil {
				t.Error("undefined color must yield nil")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: bad sub comm", me)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
