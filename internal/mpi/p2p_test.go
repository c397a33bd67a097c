package mpi

import (
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// smallWorld builds a world on a trimmed cluster for pt2pt tests.
func smallWorld(t testing.TB, cluster *topology.Cluster, nodes, ppn int, cfg Config) *World {
	t.Helper()
	job, err := topology.NewJob(cluster, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(job, cfg)
}

func TestSendRecvInterNodeEager(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	var got float64
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 16)
		if r.Rank() == 0 {
			v.Fill(3.5)
			r.Send(c, 1, 7, v)
		} else {
			r.Recv(c, 0, 7, v)
			got = v.At(15)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.5 {
		t.Fatalf("received %v, want 3.5", got)
	}
	// Latency sanity: at least overhead + wire, far less than a second.
	net := w.Job.Cluster.Net
	min := net.SenderOverhead + net.WireLatency + net.ReceiverOverhead
	if sim.Duration(w.Now()) < min {
		t.Fatalf("eager latency %v below floor %v", w.Now(), min)
	}
}

func TestSendRecvInterNodeRendezvous(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	const n = 1 << 20 // 8 MB of float64 >> eager threshold
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, n)
		if r.Rank() == 0 {
			v.Fill(1)
			r.Send(c, 1, 0, v)
		} else {
			r.Recv(c, 0, 0, v)
			if v.At(n-1) != 1 {
				t.Error("payload corrupted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rendezvous must include handshake RTT plus the flow time.
	net := w.Job.Cluster.Net
	flowTime := sim.TransferTime(8*n, net.PerFlowCap)
	min := net.SenderOverhead + 2*net.WireLatency + flowTime
	if sim.Duration(w.Now()) < min {
		t.Fatalf("rendezvous latency %v below floor %v", w.Now(), min)
	}
}

func TestRendezvousSlowerThanEagerForSameBytes(t *testing.T) {
	// Force the same message through both protocols on copies of the
	// cluster with different thresholds: rendezvous must pay the extra
	// handshake.
	run := func(threshold int) sim.Time {
		cl := topology.ClusterB()
		cl.Net.EagerThreshold = threshold
		w := smallWorld(t, cl, 2, 1, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			v := NewVector(Float64, 512)
			if r.Rank() == 0 {
				r.Send(c, 1, 0, v)
			} else {
				r.Recv(c, 0, 0, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	eager := run(1 << 20)
	rendezvous := run(1)
	if rendezvous <= eager {
		t.Fatalf("rendezvous (%v) should be slower than eager (%v)", rendezvous, eager)
	}
}

func TestSendRecvIntraNode(t *testing.T) {
	w := smallWorld(t, topology.ClusterA(), 1, 4, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Int64, 100)
		if r.Rank() == 0 {
			v.Fill(9)
			r.Send(c, 1, 0, v)
		} else if r.Rank() == 1 {
			r.Recv(c, 0, 0, v)
			if v.At(0) != 9 {
				t.Error("intra-node payload corrupted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Net.Stats.Messages != 0 {
		t.Fatalf("intra-node send crossed the network: %d msgs", w.Net.Stats.Messages)
	}
	if w.Mem[0].Stats.Copies == 0 {
		t.Fatal("intra-node send did not use the memory channel")
	}
}

func TestCrossSocketCopyCostsMore(t *testing.T) {
	// Ranks 0 and 13 share socket 0 at ppn=28 on cluster A; 0 and 14 do
	// not. The cross-socket message must take longer.
	run := func(dst int) sim.Time {
		w := smallWorld(t, topology.ClusterA(), 1, 28, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			v := NewVector(Float64, 1<<14)
			switch r.Rank() {
			case 0:
				r.Send(c, dst, 0, v)
			case dst:
				r.Recv(c, 0, 0, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	same := run(13)
	cross := run(14)
	if cross <= same {
		t.Fatalf("cross-socket (%v) should exceed intra-socket (%v)", cross, same)
	}
}

func TestUnexpectedMessageThenRecv(t *testing.T) {
	// Send arrives before the receive is posted: must be buffered and
	// matched later.
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 8)
		if r.Rank() == 0 {
			v.Fill(5)
			r.Send(c, 1, 3, v)
		} else {
			r.Proc().Sleep(100 * sim.Microsecond) // ensure arrival first
			r.Recv(c, 0, 3, v)
			if v.At(0) != 5 {
				t.Error("unexpected-path payload corrupted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingFIFOPerKey(t *testing.T) {
	// Two same-tag messages must arrive in send order.
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		if r.Rank() == 0 {
			a := NewVector(Int32, 1)
			a.Fill(1)
			r.Send(c, 1, 0, a)
			a.Fill(2)
			r.Send(c, 1, 0, a)
		} else {
			x := NewVector(Int32, 1)
			y := NewVector(Int32, 1)
			r.Recv(c, 0, 0, x)
			r.Recv(c, 0, 0, y)
			if x.At(0) != 1 || y.At(0) != 2 {
				t.Errorf("got (%v,%v), want (1,2)", x.At(0), y.At(0))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsSeparateMessages(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		if r.Rank() == 0 {
			a := NewVector(Int32, 1)
			a.Fill(10)
			r.Send(c, 1, 1, a)
			a.Fill(20)
			r.Send(c, 1, 2, a)
		} else {
			x := NewVector(Int32, 1)
			// Receive tag 2 first even though tag 1 was sent first.
			r.Recv(c, 0, 2, x)
			if x.At(0) != 20 {
				t.Errorf("tag 2 got %v", x.At(0))
			}
			r.Recv(c, 0, 1, x)
			if x.At(0) != 10 {
				t.Errorf("tag 1 got %v", x.At(0))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		n := c.Size()
		me := r.Rank()
		outs := make([]*Vector, n)
		ins := make([]*Vector, n)
		var reqs []*Request
		for peer := 0; peer < n; peer++ {
			if peer == me {
				continue
			}
			outs[peer] = NewVector(Float64, 32)
			outs[peer].Fill(float64(me*100 + peer))
			ins[peer] = NewVector(Float64, 32)
			reqs = append(reqs, r.Irecv(c, peer, 5, ins[peer]))
			reqs = append(reqs, r.Isend(c, peer, 5, outs[peer]))
		}
		r.WaitAll(reqs...)
		for peer := 0; peer < n; peer++ {
			if peer == me {
				continue
			}
			if ins[peer].At(0) != float64(peer*100+me) {
				t.Errorf("rank %d from %d: got %v", me, peer, ins[peer].At(0))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 1, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 4)
		v.Fill(8)
		r.Send(c, 0, 0, v)
		got := NewVector(Float64, 4)
		r.Recv(c, 0, 0, got)
		if got.At(0) != 8 {
			t.Errorf("self-send got %v", got.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockOnMissingSendReported(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			v := NewVector(Float64, 1)
			r.Recv(w.CommWorld(), 0, 0, v) // never sent
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestP2PValidation(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		if r.Rank() != 0 {
			return nil
		}
		c := w.CommWorld()
		v := NewVector(Float64, 1)
		for i, bad := range []func(){
			func() { r.Send(nil, 1, 0, v) },
			func() { r.Send(c, 9, 0, v) },
			func() { r.Send(c, -1, 0, v) },
			func() { r.Send(c, 1, -2, v) },
			func() { r.Send(c, 1, 0, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("case %d: no panic", i)
					}
				}()
				bad()
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhantomPayloadSameTiming(t *testing.T) {
	// A phantom transfer must take exactly as long as a real one.
	run := func(phantom bool) sim.Time {
		w := smallWorld(t, topology.ClusterC(), 2, 1, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			var v *Vector
			if phantom {
				v = NewPhantom(Float32, 4096)
			} else {
				v = NewVector(Float32, 4096)
			}
			if r.Rank() == 0 {
				r.Send(c, 1, 0, v)
			} else {
				r.Recv(c, 0, 0, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	if real, ph := run(false), run(true); real != ph {
		t.Fatalf("real %v != phantom %v", real, ph)
	}
}
