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

func TestWaitAnyEdgeCases(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		if r.Rank() != 0 {
			return nil
		}
		// All-nil input must panic (would deadlock otherwise).
		func() {
			defer func() {
				if recover() == nil {
					t.Error("WaitAny with no live requests did not panic")
				}
			}()
			r.WaitAny([]*Request{nil, nil})
		}()
		// Completed request returned immediately, lowest index first.
		c := w.CommWorld()
		v := NewVector(Float64, 1)
		q1 := r.Isend(c, 1, 1, v) // eager: completes inline
		q2 := r.Isend(c, 1, 2, v)
		if got := r.WaitAny([]*Request{nil, q1, q2}); got != 1 {
			t.Errorf("WaitAny = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain rank 1's unexpected messages to keep the deadlock detector
	// quiet — they were eager sends, so nothing is pending.
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
// allocates nothing.
func TestWaitDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	w := smallWorld(t, topology.ClusterB(), 1, 1, Config{})
	var allocs float64
	err := w.Run(func(r *Rank) error {
		v := NewVector(Float64, 1)
		q := newRequest(r, "recv", msgKey{src: 0, tag: 1}, v)
		other := newRequest(r, "recv", msgKey{src: 0, tag: 2}, v)
		finishOther := func() { other.complete() }
		finishQ := func() { q.complete() }
		op := func() {
			q.done, other.done = false, false
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
