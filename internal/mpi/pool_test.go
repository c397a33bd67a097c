package mpi

import (
	"math"
	"testing"

	"dpml/internal/race"
	"dpml/internal/topology"
)

// TestTransitPoolReusesEagerClones sends a sequence of same-shape eager
// messages and checks the free list actually recycles: after the first
// send/recv pair retires its clone, every later send should draw from
// the pool, so at most one clone per shape is ever allocated.
func TestTransitPoolReusesEagerClones(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
	const rounds = 16
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 8)
		for i := 0; i < rounds; i++ {
			if r.Rank() == 0 {
				v.Fill(float64(i))
				r.Send(c, 1, 0, v)
			} else {
				r.Recv(c, 0, 0, v)
				if got := v.At(0); got != float64(i) {
					t.Errorf("round %d: received %v", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key := vecShape{dtype: Float64, n: 8}
	free := w.trans[0][key] // intra-node traffic: node 0's pool
	if len(free) != 1 {
		t.Fatalf("free list holds %d clones after %d sequential sends, want 1 (reuse)", len(free), rounds)
	}
}

// TestTransitPoolIgnoresRendezvous checks that a rendezvous transfer —
// whose envelope carries the sender's own buffer, not a clone — leaves
// nothing in the pool and does not capture the sender's storage.
func TestTransitPoolIgnoresRendezvous(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	const n = 1 << 20 // 8 MB of float64 >> eager threshold
	var sent *Vector
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, n)
		if r.Rank() == 0 {
			v.Fill(7)
			sent = v
			r.Send(c, 1, 0, v)
		} else {
			r.Recv(c, 0, 0, v)
			if v.At(n-1) != 7 {
				t.Errorf("received %v, want 7", v.At(n-1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for node, pool := range w.trans {
		for _, free := range pool {
			for _, f := range free {
				if f == sent {
					t.Fatal("pool captured the rendezvous sender's buffer")
				}
			}
		}
		if free := pool[vecShape{dtype: Float64, n: n}]; len(free) != 0 {
			t.Fatalf("rendezvous transfer left %d vectors in node %d's pool, want 0", len(free), node)
		}
	}
}

// TestTransitPoolCloneIsIndependent guards the aliasing hazard: a pooled
// clone handed to a new send must not share storage with the user buffer
// it copies, so mutating the source after Isend cannot corrupt the
// in-flight payload.
func TestTransitPoolCloneIsIndependent(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		if r.Rank() == 0 {
			v := NewVector(Float64, 4)
			// Prime the pool with one retired clone, then check the next
			// send's payload survives the sender scribbling on v.
			v.Fill(1)
			r.Send(c, 1, 0, v)
			v.Fill(2)
			req := r.Isend(c, 1, 0, v)
			v.Fill(99)
			r.Wait(req)
		} else {
			v := NewVector(Float64, 4)
			r.Recv(c, 0, 0, v)
			r.Recv(c, 0, 0, v)
			if got := v.At(0); got != 2 {
				t.Errorf("in-flight payload read %v, want 2 (sender overwrote its buffer)", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScratchSharesTransitFreeList checks that receive temporaries and
// transit clones recycle through one free list: a released clone backs
// the next same-shape temporary, and the race build poisons it on
// release.
func TestScratchSharesTransitFreeList(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
	v := NewVector(Float64, 8)
	v.Fill(1)
	c := w.transitClone(0, v)
	w.release(0, c)
	if race.Enabled && !math.IsNaN(c.At(0)) {
		t.Fatalf("released clone reads %v, want NaN poison", c.At(0))
	}
	if got := w.scratch(0, v, 8); got != c {
		t.Fatal("scratch did not draw the released clone")
	}
	if got := w.scratch(0, v, 4); got == c || got.Len() != 4 || got.Phantom() {
		t.Fatal("scratch of another shape did not build a fresh vector")
	}
}
