package mpi

import (
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// These tests pin down the per-process pipe model that produces the
// paper's Figure 1 trends: a single process gains nothing from extra
// in-flight messages, while different processes add throughput until the
// NIC link saturates.

func TestWindowOfSendsSharesSenderPipe(t *testing.T) {
	// One sender, window of 4 rendezvous messages: total time must be
	// ~4x one message's flow time (pipe-shared), not ~1x.
	cl := topology.ClusterB()
	elapsed := func(window int) sim.Duration {
		w := smallWorld(t, cl, 2, 1, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			const count = 1 << 18 // 1MB of float32
			if r.Rank() == 0 {
				reqs := make([]*Request, window)
				for i := 0; i < window; i++ {
					reqs[i] = r.Isend(c, 1, i, NewPhantom(Float32, count))
				}
				r.WaitAll(reqs...)
			} else {
				reqs := make([]*Request, window)
				for i := 0; i < window; i++ {
					reqs[i] = r.Irecv(c, 0, i, NewPhantom(Float32, count))
				}
				r.WaitAll(reqs...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(w.Now())
	}
	t1, t4 := elapsed(1), elapsed(4)
	ratio := float64(t4) / float64(t1)
	if ratio < 3.5 {
		t.Fatalf("4-message window only %.2fx one message: pipe not shared", ratio)
	}
}

func TestDistinctSendersScaleUntilLink(t *testing.T) {
	// ppn senders to ppn receivers across two nodes (the DPML phase-3
	// pattern): with per-process caps well under the link, time should
	// stay nearly flat as senders multiply.
	cl := topology.ClusterB()
	elapsed := func(ppn int) sim.Duration {
		w := smallWorld(t, cl, 2, ppn, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			const count = 1 << 18
			v := NewPhantom(Float32, count)
			if r.Place().Node == 0 {
				r.Send(c, r.Rank()+ppn, 0, v)
			} else {
				r.Recv(c, r.Rank()-ppn, 0, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(w.Now())
	}
	t1, t8 := elapsed(1), elapsed(8)
	if float64(t8) > 1.3*float64(t1) {
		t.Fatalf("8 senders took %v vs 1 sender %v: per-process concurrency broken", t8, t1)
	}
}

func TestFullDuplexExchange(t *testing.T) {
	// A symmetric sendrecv exchange must cost about one direction's
	// time, not two (full-duplex pipes).
	cl := topology.ClusterB()
	run := func(bidirectional bool) sim.Duration {
		w := smallWorld(t, cl, 2, 1, Config{})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			const count = 1 << 18
			v := NewPhantom(Float32, count)
			in := NewPhantom(Float32, count)
			other := 1 - r.Rank()
			if bidirectional {
				r.SendRecv(c, other, 0, v, other, 0, in)
			} else if r.Rank() == 0 {
				r.Send(c, 1, 0, v)
			} else {
				r.Recv(c, 0, 0, in)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(w.Now())
	}
	uni, bi := run(false), run(true)
	if float64(bi) > 1.3*float64(uni) {
		t.Fatalf("bidirectional exchange %v vs unidirectional %v: duplex broken", bi, uni)
	}
}

func TestNetworkStatsCountMessages(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewPhantom(Float32, 256)
		if r.Rank() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(c, 1, i, v)
			}
		} else {
			for i := 0; i < 5; i++ {
				r.Recv(c, 0, i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Net.Stats.Messages != 5 {
		t.Fatalf("message count %d, want 5", w.Net.Stats.Messages)
	}
	if w.Net.Stats.Bytes != 5*1024 {
		t.Fatalf("byte count %d, want 5120", w.Net.Stats.Bytes)
	}
}
