package mpi

import (
	"fmt"
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
	free := *w.pools[0].list(vecShape{dtype: Float64, n: 8}) // intra-node traffic: node 0's pool
	if len(free) != 1 {
		t.Fatalf("free list holds %d clones after %d sequential sends, want 1 (reuse)", len(free), rounds)
	}
}

// TestOneWayTrafficKeepsFreeListsBounded sends 1,000 eager real
// messages from rank 0 on node 0 to rank 1 on node 1. Each envelope and
// transit clone is drawn on node 0 and released on node 1, so without a
// bound node 1's lists would end up holding all 1,000 of each while
// node 0 allocated every one; they must stop at freePerRank objects per
// rank of the node.
func TestOneWayTrafficKeepsFreeListsBounded(t *testing.T) {
	const msgs = 1000
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 8)
		for i := 0; i < msgs; i++ {
			if r.Rank() == 0 {
				r.Send(c, 1, 0, v)
			} else {
				r.Recv(c, 0, 0, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := freePerRank * w.Job.PPN
	recv := &w.pools[1]
	if n := len(recv.envs); n != limit {
		t.Errorf("receiver's node keeps %d envelopes after %d one-way messages, want %d", n, msgs, limit)
	}
	if n := len(*recv.list(vecShape{dtype: Float64, n: 8})); n != limit {
		t.Errorf("receiver's node keeps %d transit clones after %d one-way messages, want %d", n, msgs, limit)
	}
}

// TestRendezvousSendBufferReusableOnReturn pins a blocking rendezvous
// Send as MPI's: once it returns, the sender may write its buffer. The
// sender's request completes at the instant the payload lands, so on a
// sharded kernel the sender can run on before the receiver's node has
// copied the payload out; every receive must still see what was sent,
// and the pool must never capture the sender's buffer.
func TestRendezvousSendBufferReusableOnReturn(t *testing.T) {
	const n, iters = 16 << 10, 4 // 128 KB of float64, above the eager threshold
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			w := smallWorld(t, topology.ClusterB(), 2, 1, Config{Shards: shards})
			if n*Float64.Size() <= w.EagerThreshold() {
				t.Fatalf("%d bytes is eager (threshold %d)", n*Float64.Size(), w.EagerThreshold())
			}
			var sent *Vector
			err := w.Run(func(r *Rank) error {
				c := w.CommWorld()
				v := NewVector(Float64, n)
				if r.Rank() == 0 {
					sent = v
				}
				for i := 0; i < iters; i++ {
					if r.Rank() == 0 {
						v.Fill(float64(i))
						r.Send(c, 1, 0, v)
						v.Fill(-1)
						continue
					}
					r.Recv(c, 0, 0, v)
					if first, last := v.At(0), v.At(n-1); first != float64(i) || last != float64(i) {
						t.Errorf("message %d: received %v..%v, want %d", i, first, last, i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for node := range w.pools {
				for _, sf := range w.pools[node].vecs {
					for _, f := range sf.free {
						if f == sent {
							t.Fatalf("node %d's pool captured the rendezvous sender's buffer", node)
						}
					}
				}
			}
		})
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

// TestReleasedRequestIsPoisoned waits twice on one request. Wait frees
// the request it completes, as MPI_Wait does, and clears its owner in
// every build, so the second Wait panics naming a freed request instead
// of returning on a request that may already track another message.
func TestReleasedRequestIsPoisoned(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
	var msg any
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		if r.Rank() == 1 {
			r.Send(c, 0, 0, NewPhantom(Int32, 1))
			return nil
		}
		q := r.Irecv(c, 1, 0, NewPhantom(Int32, 1))
		r.Wait(q)
		func() {
			defer func() { msg = recover() }()
			r.Wait(q)
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "mpi: Wait on a freed recv request {comm:0 src:1 tag:0}"; msg != want {
		t.Fatalf("second Wait on a request: recovered %v, want %q", msg, want)
	}
}

// TestMatchingChurnKeepsFIFOPerKey drives the matching queues through
// many empty → non-empty → empty cycles, with one key and with several
// interleaved keys, once with every message arriving unexpected (the
// receiver posts late) and once with every receive posted first, and
// checks that each key's messages land in its receives in send order
// while recycled queue storage moves between keys.
func TestMatchingChurnKeepsFIFOPerKey(t *testing.T) {
	const cycles, perKey = 6, 3
	for _, keys := range []int{1, 5} {
		for _, posted := range []bool{false, true} {
			w := smallWorld(t, topology.ClusterB(), 1, 2, Config{})
			err := w.Run(func(r *Rank) error {
				c := w.CommWorld()
				for cy := 0; cy < cycles; cy++ {
					value := func(k, m int) float64 { return float64(cy*1000 + k*10 + m) }
					if r.Rank() == 0 {
						if posted {
							r.Proc().Sleep(1000) // the receiver posts first
						}
						v := NewVector(Float64, 1)
						for m := 0; m < perKey; m++ {
							for k := 0; k < keys; k++ {
								v.Set(0, value(k, m))
								r.Send(c, 1, k, v)
							}
						}
					} else {
						if !posted {
							r.Proc().Sleep(1000) // the messages arrive first
						}
						var reqs []*Request
						var bufs []*Vector
						for k := keys - 1; k >= 0; k-- {
							for m := 0; m < perKey; m++ {
								b := NewVector(Float64, 1)
								bufs = append(bufs, b)
								reqs = append(reqs, r.Irecv(c, 0, k, b))
							}
						}
						r.WaitAll(reqs...)
						i := 0
						for k := keys - 1; k >= 0; k-- {
							for m := 0; m < perKey; m++ {
								if got, want := bufs[i].At(0), value(k, m); got != want {
									t.Errorf("keys=%d posted=%v cycle %d: key %d receive %d got %v, want %v", keys, posted, cy, k, m, got, want)
								}
								i++
							}
						}
					}
					r.Barrier(c)
				}
				if n := r.posted.n + r.unexpected.n; n != 0 {
					t.Errorf("rank %d: %d entries left in the matching queues", r.Rank(), n)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
