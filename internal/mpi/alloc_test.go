package mpi

import (
	"runtime"
	"testing"

	"dpml/internal/race"
	"dpml/internal/topology"
)

// warmMallocs runs w with every rank calling setup once and then the
// step it returns, and returns the heap allocations the whole world made
// per step after warm-up. Rank 0 reads the counters at the start of a
// step, so a rank part-way through a step at either read moves at most
// one step's allocations across the window. Every step is collective,
// so no rank can finish the last one, and exit, before rank 0 has read
// the counters and started it. The fewest mallocs of several windows is
// the count: a stray allocation by another goroutine of the process
// lands in one window, not in all.
func warmMallocs(t *testing.T, w *World, setup func(r *Rank) func()) float64 {
	t.Helper()
	const warm, runs, windows = 8, 64, 3
	var mallocs [windows + 1]uint64
	err := w.Run(func(r *Rank) error {
		step := setup(r)
		for i := 0; i <= warm+windows*runs; i++ {
			if w := i - warm; r.Rank() == 0 && w >= 0 && w%runs == 0 {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				mallocs[w/runs] = m.Mallocs
			}
			step()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fewest := mallocs[1] - mallocs[0]
	for i := 1; i < windows; i++ {
		fewest = min(fewest, mallocs[i+1]-mallocs[i])
	}
	return float64(fewest) / runs
}

// TestWarmMessagesDoNotAllocate pins the point-to-point path as free of
// allocation once warm, on phantom payloads: requests, envelopes,
// transfer records, transit clones and the flat algorithms' view headers
// all come from free lists, and the matching queues keep their backing
// arrays. Each SendRecv step
// exchanges one message each way between two ranks, and the
// isend-irecv-wait step does the same with the public calls, whose Wait
// frees each request. The barrier-3x3 step runs a dissemination barrier
// on 9 ranks, whose peers wrap around. The allreduces run on 6 ranks,
// so recursive doubling and Rabenseifner fold a non-power-of-two group,
// and their 64 KB vector sends some messages eager and some rendezvous
// on cluster B (16 KB threshold). The pipelined allreduce runs
// Rabenseifner on three interleaved chunks.
func TestWarmMessagesDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on synchronizing operations")
	}
	sendRecv := func(bytes int) func(r *Rank) func() {
		return func(r *Rank) func() {
			c := r.w.CommWorld()
			out, in := NewPhantom(Int32, bytes/4), NewPhantom(Int32, bytes/4)
			peer := 1 - c.RankOf(r)
			return func() { r.SendRecv(c, peer, 0, out, peer, 0, in) }
		}
	}
	barrier := func(r *Rank) func() {
		c := r.w.CommWorld()
		return func() { r.Barrier(c) }
	}
	allreduce := func(alg Algorithm) func(r *Rank) func() {
		return func(r *Rank) func() {
			c := r.w.CommWorld()
			v := NewPhantom(Float32, 16<<10)
			return func() { r.Allreduce(c, alg, Sum, v) }
		}
	}
	cases := []struct {
		name       string
		nodes, ppn int
		setup      func(r *Rank) func()
		want       float64
	}{
		{"sendrecv-intra", 1, 2, sendRecv(1 << 10), 0},
		{"sendrecv-eager", 2, 1, sendRecv(1 << 10), 0},
		{"sendrecv-rendezvous", 2, 1, sendRecv(1 << 20), 0},
		{"isend-irecv-wait", 2, 1, func(r *Rank) func() {
			c := r.w.CommWorld()
			out, in := NewPhantom(Int32, 256), NewPhantom(Int32, 256)
			peer := 1 - c.RankOf(r)
			return func() {
				rq := r.Irecv(c, peer, 0, in)
				sq := r.Isend(c, peer, 0, out)
				r.Wait(rq)
				r.Wait(sq)
			}
		}, 0},
		{"barrier", 2, 4, barrier, 0},
		{"barrier-3x3", 3, 3, barrier, 0},
		{"allreduce-" + string(AlgRecursiveDoubling), 3, 2, allreduce(AlgRecursiveDoubling), 0},
		{"allreduce-" + string(AlgRing), 3, 2, allreduce(AlgRing), 0},
		{"allreduce-" + string(AlgRabenseifner), 3, 2, allreduce(AlgRabenseifner), 0},
		{"allreduce-" + string(AlgReduceBcast), 3, 2, allreduce(AlgReduceBcast), 0},
		{"allreduce-pipelined-3", 3, 2, func(r *Rank) func() {
			c := r.w.CommWorld()
			v := NewPhantom(Float32, 16<<10)
			return func() { r.AllreducePipelined(c, Sum, v, 3) }
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := smallWorld(t, topology.ClusterB(), tc.nodes, tc.ppn, Config{})
			if got := warmMallocs(t, w, tc.setup); got != tc.want {
				t.Fatalf("a warm step allocates %v objects across the world, want %v", got, tc.want)
			}
		})
	}
}
