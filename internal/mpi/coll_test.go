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
	if c.RankOf(w.ranks[1]) != 1 || c.RankOf(w.ranks[0]) != -1 {
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

func TestInternCommSharedByMembers(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 3, 2, Config{})
	got := make([]*Comm, w.Job.NumProcs())
	err := w.Run(func(r *Rank) error {
		me := r.Rank()
		// Even/odd groups in reverse rank order, derived independently
		// by every member mid-run.
		want := []int{4, 2, 0}
		if me%2 == 1 {
			want = []int{5, 3, 1}
		}
		sub := w.InternComm(want)
		got[me] = sub
		for i, g := range want {
			if sub.Global(i) != g {
				t.Errorf("rank %d: sub[%d] = %d, want %d", me, i, sub.Global(i), g)
			}
		}
		// The communicator must work for collectives: interning means
		// all members share one comm object, so their messages match.
		v := NewVector(Int64, 1)
		v.Fill(float64(me))
		r.Allreduce(sub, AlgRecursiveDoubling, Sum, v)
		wantSum := 0.0
		for _, g := range want {
			wantSum += float64(g)
		}
		if v.At(0) != wantSum {
			t.Errorf("rank %d: allreduce on interned comm = %v, want %v", me, v.At(0), wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for me, c := range got {
		if c != got[me%2] {
			t.Errorf("rank %d holds a different comm object than rank %d", me, me%2)
		}
	}
}
