package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dpml/internal/faults"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// pingPongEnd runs a fixed eager ping-pong workload and returns the
// virtual end time.
func pingPongEnd(t *testing.T, cfg Config) sim.Time {
	t.Helper()
	w := smallWorld(t, topology.ClusterB(), 2, 1, cfg)
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 16)
		for i := 0; i < 10; i++ {
			if r.Rank() == 0 {
				r.Send(c, 1, i, v)
				r.Recv(c, 1, 100+i, v)
			} else {
				r.Recv(c, 0, i, v)
				r.Send(c, 0, 100+i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Now()
}

// TestFaultsDisabledBitTransparent: nil and empty plans leave the run —
// end time and event count — identical to a config with no fault layer
// at all.
func TestFaultsDisabledBitTransparent(t *testing.T) {
	type obs struct {
		end    sim.Time
		events uint64
	}
	run := func(cfg Config) obs {
		w := smallWorld(t, topology.ClusterB(), 2, 2, cfg)
		err := w.Run(func(r *Rank) error {
			v := NewVector(Float64, 1024)
			v.Fill(float64(r.Rank()))
			r.Allreduce(w.CommWorld(), AlgRecursiveDoubling, Sum, v)
			r.Compute(4096)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return obs{w.Now(), w.SimStats().Events}
	}
	base := run(Config{})
	if got := run(Config{Faults: nil}); got != base {
		t.Fatalf("nil plan perturbed the run: %+v vs %+v", got, base)
	}
	if got := run(Config{Faults: &faults.Plan{}}); got != base {
		t.Fatalf("empty plan perturbed the run: %+v vs %+v", got, base)
	}
}

// TestStragglerStretchesCompute: a factor-4 straggler window makes a
// pure-compute rank take exactly 4x as long.
func TestStragglerStretchesCompute(t *testing.T) {
	end := func(p *faults.Plan) sim.Time {
		w := smallWorld(t, topology.ClusterB(), 1, 1, Config{Faults: p})
		// Chunked: the factor is sampled at each operation's start, so a
		// window boundary lands between chunks.
		if err := w.Run(func(r *Rank) error {
			for i := 0; i < 16; i++ {
				r.Compute(1 << 16)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	healthy := end(nil)
	slowed := end(&faults.Plan{Stragglers: []faults.Straggler{{Rank: 0, Factor: 4}}})
	if slowed != sim.Time(4*sim.Duration(healthy)) {
		t.Fatalf("straggler compute end %v, want 4x healthy %v", slowed, healthy)
	}
	// A window that closes before the work ends stretches only part of it.
	half := end(&faults.Plan{Stragglers: []faults.Straggler{
		{Rank: 0, Factor: 4, End: sim.Time(sim.Duration(healthy) / 2)},
	}})
	if half <= healthy || half >= slowed {
		t.Fatalf("bounded window end %v, want between %v and %v", half, healthy, slowed)
	}
}

// TestStragglerSlowsMessaging: the same ping-pong with a straggling rank
// finishes later (per-message CPU overheads stretch).
func TestStragglerSlowsMessaging(t *testing.T) {
	healthy := pingPongEnd(t, Config{})
	slowed := pingPongEnd(t, Config{Faults: &faults.Plan{
		Stragglers: []faults.Straggler{{Rank: 1, Factor: 8}},
	}})
	if slowed <= healthy {
		t.Fatalf("straggler run %v not slower than healthy %v", slowed, healthy)
	}
}

// TestLinkFaultSlowsTransfer: degrading the sender's uplink stretches a
// large rendezvous transfer already modelled by the flow net.
func TestLinkFaultSlowsTransfer(t *testing.T) {
	end := func(p *faults.Plan) sim.Time {
		w := smallWorld(t, topology.ClusterB(), 2, 1, Config{Faults: p})
		err := w.Run(func(r *Rank) error {
			v := NewVector(Float64, 1<<20)
			if r.Rank() == 0 {
				r.Send(w.CommWorld(), 1, 0, v)
			} else {
				r.Recv(w.CommWorld(), 0, 0, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	healthy := end(nil)
	// 5% of ClusterB's 12 GB/s link sits well below the 1.1 GB/s per-flow
	// cap, so the degraded link becomes the path bottleneck.
	degraded := end(&faults.Plan{Links: []faults.LinkFault{{Node: 0, Factor: 0.05}}})
	if degraded <= healthy {
		t.Fatalf("degraded-link run %v not slower than healthy %v", degraded, healthy)
	}
}

// TestNICThrottleSlowsInjection: throttling node 0's NIC stretches an
// eager message burst.
func TestNICThrottleSlowsInjection(t *testing.T) {
	end := func(p *faults.Plan) sim.Time {
		w := smallWorld(t, topology.ClusterB(), 2, 1, Config{Faults: p})
		err := w.Run(func(r *Rank) error {
			c := w.CommWorld()
			v := NewVector(Float64, 16)
			if r.Rank() == 0 {
				reqs := make([]*Request, 32)
				for i := range reqs {
					reqs[i] = r.Isend(c, 1, i, v)
				}
				r.WaitAll(reqs...)
			} else {
				for i := 0; i < 32; i++ {
					r.Recv(c, 0, i, NewVector(Float64, 16))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	healthy := end(nil)
	// The scaled gap must exceed the 400ns sender overhead before the
	// injector ever backs up: 200 x 7ns = 1.4us per message.
	throttled := end(&faults.Plan{NICs: []faults.NICThrottle{{Node: 0, Factor: 200}}})
	if throttled <= healthy {
		t.Fatalf("throttled run %v not slower than healthy %v", throttled, healthy)
	}
}

// TestSharpOutagePlanIgnoredWithoutSharp: a plan with SHArP outages on a
// fabric without SHArP installs cleanly and the run completes.
func TestSharpOutagePlanIgnoredWithoutSharp(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{
		Faults: &faults.Plan{Sharp: []faults.SharpOutage{{Start: 0}}},
	})
	if w.Sharp != nil {
		t.Fatal("ClusterB grew SHArP support")
	}
	if err := w.Run(func(r *Rank) error { r.Compute(64); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidPlanPanics: NewWorld rejects a plan that does not fit the
// job shape.
func TestInvalidPlanPanics(t *testing.T) {
	job, err := topology.NewJob(topology.ClusterB(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range straggler rank accepted")
		}
	}()
	NewWorld(job, Config{Faults: &faults.Plan{
		Stragglers: []faults.Straggler{{Rank: 99, Factor: 2}},
	}})
}

// TestWatchdogNamesStuckRanks: two ranks posting receives that can never
// match, plus a third rank that keeps virtual time ticking so the
// kernel's global deadlock detection can never fire. Rank 3 parks
// inside a Barrier step whose peer, rank 4, never arrives, and rank 5
// inside a rendezvous SendRecv step whose send rank 6 never receives.
// The watchdog must convert the wedge into a diagnostic error naming
// the actual stuck ranks, the wait each step armed, and their pending
// requests, at one shard and at two.
func TestWatchdogNamesStuckRanks(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			w := smallWorld(t, topology.ClusterB(), 7, 1, Config{Watchdog: sim.Millisecond, Shards: shards})
			pair := w.NewComm([]int{3, 4})
			big := func() *Vector { return NewPhantom(Int32, 1<<18) } // 1 MB: rendezvous
			err := w.Run(func(r *Rank) error {
				c := w.CommWorld()
				switch r.Rank() {
				case 0:
					r.Recv(c, 1, 9, NewVector(Float64, 4)) // rank 1 never sends
				case 1:
					r.Recv(c, 0, 9, NewVector(Float64, 4)) // rank 0 never sends
				case 2:
					for { // live events forever: no global deadlock
						r.Proc().Sleep(sim.Microsecond)
					}
				case 3:
					r.Barrier(pair) // rank 4 never enters it
				case 5:
					r.SendRecv(c, 6, 7, big(), 6, 7, big())
				case 6:
					r.Send(c, 5, 7, big()) // and never receives rank 5's
				}
				return nil
			})
			var wd *sim.WatchdogError
			if !errors.As(err, &wd) {
				t.Fatalf("got %v, want WatchdogError", err)
			}
			msg := err.Error()
			for _, want := range []string{
				"rank0", "rank1", "posted recvs", "pending requests",
				fmt.Sprintf("rank3: wait recv {comm:%d src:4 tag:", pair.id),
				"rank5: wait send {comm:0 src:5 tag:7}",
			} {
				if !strings.Contains(msg, want) {
					t.Fatalf("watchdog report missing %q:\n%s", want, msg)
				}
			}
			if wd.Deadline != sim.Time(sim.Millisecond) {
				t.Fatalf("deadline %v, want 1ms", wd.Deadline)
			}
		})
	}
}
