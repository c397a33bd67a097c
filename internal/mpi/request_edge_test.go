package mpi

import (
	"testing"

	"dpml/internal/race"
	"dpml/internal/topology"
)

func TestWaitOnForeignRequestPanics(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	reqs := make(chan *Request, 1)
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 1)
		switch r.Rank() {
		case 0:
			q := r.Isend(c, 1, 0, v)
			reqs <- q
		case 1:
			r.Recv(c, 0, 0, v)
			q := <-reqs
			defer func() {
				if recover() == nil {
					t.Error("Wait on foreign request did not panic")
				}
			}()
			r.Wait(q)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestDoneAccessor(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 1)
		if r.Rank() == 0 {
			q := r.Isend(c, 1, 0, v)
			if !q.Done() {
				t.Error("eager Isend not complete at return")
			}
		} else {
			q := r.Irecv(c, 0, 0, v)
			r.Wait(q)
			if !q.Done() {
				t.Error("waited request not done")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLinkAccessors(t *testing.T) {
	// Exercise the rank-level accessors that tools rely on.
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	err := w.Run(func(r *Rank) error {
		if r.World() != w {
			t.Error("World accessor wrong")
		}
		if r.Size() != 4 {
			t.Errorf("Size = %d", r.Size())
		}
		if r.Proc() == nil {
			t.Error("Proc nil inside Run")
		}
		if got := r.Place().Node; got != r.Rank()/2 {
			t.Errorf("Place.Node = %d for rank %d", got, r.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitDoesNotAllocate parks Rank.Wait on a pending request twice per
// call, once woken by another request's completion and once by its own.
// The wait reason is formatted only for deadlock reports, so parking
// allocates nothing, and Wait frees the request, so each call draws it
// again from the rank's free list.
func TestWaitDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	w := smallWorld(t, topology.ClusterB(), 1, 1, Config{})
	var allocs float64
	err := w.Run(func(r *Rank) error {
		v := NewVector(Float64, 1)
		var q *Request
		other := r.newRequest("recv", msgKey{src: 0, tag: 2}, v)
		finishOther := func() { other.complete() }
		finishQ := func() { q.complete() }
		op := func() {
			q = r.newRequest("recv", msgKey{src: 0, tag: 1}, v)
			other.done = false
			r.k.After(1, finishOther)
			r.k.After(2, finishQ)
			r.Wait(q)
		}
		for i := 0; i < 4; i++ {
			op()
		}
		allocs = testing.AllocsPerRun(100, op)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Rank.Wait allocates %v objects per call, want 0", allocs)
	}
}
