package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// TestExchangeContextSwitches pins the exact proc handoff and event
// counts of twenty exchanges on cluster B, run serially (the handoff
// count depends on the shard count). A rank parks once per Barrier and
// once per SendRecv while the kernel runs the send's copy or sleeps and
// both waits in its place (see exchange). The event counts pin that the
// schedule itself did not move. A barrier costs each rank one handoff,
// and an exchange one or two between its two ranks, besides one per
// rank to start. Parking once per send wait and once per Wait cost
// 3,141 handoffs for the barriers, 62 intra-node, 82 eager and 82
// rendezvous.
//
// The barriers run on 3×6 ranks: 18 is not a power of two, so the
// dissemination peers wrap, and its five rounds mix intra- and
// inter-node messages.
func TestExchangeContextSwitches(t *testing.T) {
	const n = 20
	sendRecv := func(bytes int) func(r *Rank) {
		return func(r *Rank) {
			c := r.w.CommWorld()
			out, in := NewPhantom(Int32, bytes/4), NewPhantom(Int32, bytes/4)
			peer := 1 - c.RankOf(r)
			for i := 0; i < n; i++ {
				r.SendRecv(c, peer, 0, out, peer, 0, in)
			}
		}
	}
	cases := []struct {
		name             string
		nodes, ppn       int
		body             func(r *Rank)
		switches, events uint64
	}{
		{"barrier-3x6", 3, 6, func(r *Rank) {
			for i := 0; i < n; i++ {
				r.Barrier(r.w.CommWorld())
			}
		}, 378, 5520},
		{"sendrecv-intra", 1, 2, sendRecv(1 << 10), 22, 100},
		{"sendrecv-eager", 2, 1, sendRecv(1 << 10), 42, 240},
		{"sendrecv-rendezvous", 2, 1, sendRecv(1 << 20), 42, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := smallWorld(t, topology.ClusterB(), tc.nodes, tc.ppn, Config{Shards: 1})
			if err := w.Run(func(r *Rank) error { tc.body(r); return nil }); err != nil {
				t.Fatal(err)
			}
			st := w.SimStats()
			if st.ContextSwitch != tc.switches || st.Events != tc.events {
				t.Fatalf("context switches %d, events %d; want %d and %d",
					st.ContextSwitch, st.Events, tc.switches, tc.events)
			}
		})
	}
}

// TestExchangePanicInLaterRound: a receive buffer of the wrong size in
// the third of a run of intra-node SendRecvs. The sender's step, which
// the kernel runs on another proc's stack or on a shard's driver loop,
// delivers the message into the posted receive and panics there. The
// run must fail with a PanicError naming the sender, neither hang (the
// watchdog would turn that into a WatchdogError) nor leak a goroutine.
func TestExchangePanicInLaterRound(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			// Ranks 0,1 share node 0 and ranks 2,3 node 1; each pair
			// exchanges with itself, so at two shards each pair runs on
			// its own kernel.
			w := smallWorld(t, topology.ClusterB(), 2, 2, Config{Shards: shards, Watchdog: 1000 * millisecond})
			err := w.Run(func(r *Rank) error {
				c := w.CommWorld()
				peer := c.RankOf(r) ^ 1
				out := NewVector(Float32, 64)
				for round := 0; round < 5; round++ {
					in := NewVector(Float32, 64)
					if round == 2 && r.Rank() == 1 {
						in = NewVector(Float32, 32)
					}
					r.SendRecv(c, peer, round, out, peer, round, in)
				}
				return nil
			})
			var pe *sim.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v, want a PanicError", err)
			}
			if pe.Proc != "rank0" || !strings.Contains(fmt.Sprint(pe.Value), "mpi: recv buffer 128 bytes for 256-byte message") {
				t.Fatalf("PanicError in %s: %v; want rank0's recv-size mismatch", pe.Proc, pe.Value)
			}
			// See sim's TestShutdownReleasesGoroutines: let the shard
			// goroutines' exits land, then no goroutine may remain.
			n := runtime.NumGoroutine()
			for i := 0; n > before && i < 100000; i++ {
				runtime.Gosched()
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Fatalf("%d goroutines after the run, %d before", n, before)
			}
		})
	}
}
