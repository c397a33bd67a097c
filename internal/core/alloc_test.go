package core

import (
	"runtime"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/race"
	"dpml/internal/topology"
)

// TestWarmDPMLAllreduceAllocatesNoPayload pins the real-payload DPML path
// as free of payload-sized allocation once warm: Phase 1 deposits each
// rank's own partitions, Phase 2 folds into the segment's recycled
// accumulator, and Phase 3's receive temporaries and transit clones come
// from the world's free lists. Whatever a collective still allocates
// across all 64 ranks must stay below one rank's payload.
func TestWarmDPMLAllreduceAllocatesNoPayload(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on synchronizing operations")
	}
	const (
		nodes, ppn = 8, 8
		n          = 256 << 10 // float32 elements: 1 MB per rank
		warm, runs = 3, 4
	)
	e := buildEngine(t, topology.ClusterC(), nodes, ppn)
	var before, after runtime.MemStats
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float32, n)
		for i := 0; i < warm+runs; i++ {
			if r.Rank() == 0 && i == warm {
				runtime.ReadMemStats(&before)
			}
			v.Fill(1)
			if err := e.Allreduce(r, DPML(8), mpi.Sum, v); err != nil {
				return err
			}
			if got := v.At(n - 1); got != nodes*ppn {
				t.Errorf("rank %d: got %v, want %d", r.Rank(), got, nodes*ppn)
			}
		}
		if r.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perColl := (after.TotalAlloc - before.TotalAlloc) / runs
	if payload := uint64(n * mpi.Float32.Size()); perColl >= payload {
		t.Fatalf("a warm collective allocates %d bytes across the world, want < %d (one rank's payload)", perColl, payload)
	}
	t.Logf("a warm collective allocates %d bytes across the world", perColl)
}

// TestWarmAllocsPerDesign pins each design's heap allocations per warm
// rank-allreduce, on a 4x4 phantom job with 256 B per rank (within
// SHArP's payload limit). DPML, pipelined or not, flat, genall and
// pap-ring allocate nothing: their messages, shared-memory operations
// and views all come from free lists, and their communicators from the
// engine. Every other ceiling is the measured count, rounded up, and its
// comment names the sites that still allocate.
func TestWarmAllocsPerDesign(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on synchronizing operations")
	}
	const (
		nodes, ppn = 4, 4
		n          = 64 // float32 elements
		warm, runs = 8, 32
		windows    = 3
	)
	cases := []struct {
		design string
		max    float64
	}{
		{"flat", 0},
		{"host-based", 0},
		{"dpml-3", 0},
		{"dpml-pipe-2x3", 0},
		// SharpGroup.Allreduce's per-call records: the sharpCall and its
		// AfterNet closure; per operation, the sharpOp, its parts and
		// calls slices and begin's slot-release closure. The caller waits
		// through its cached wakeup, which allocates nothing.
		// sharp.go:80 clones only real payloads.
		{"sharp-node", 1},
		{"sharp-socket", 1.5},
		// dualroot.go:118 (each child's receive buffer), the half and
		// segment views (:47, :94), BlockPartition (:91), the request,
		// buffer and view slices (:92, :102-:116) and the sends slice.
		{"dualroot-s3", 44},
		{"genall-g4", 0},
		// pap.go:118 (each block's receive buffer), the block views
		// (:116), BlockPartition (:111), the view, request and buffer
		// slices (:112-:114) and the sends slice (:129).
		{"pap-sorted", 28},
		// On a healthy fabric no rank is late, so the straggler
		// receives and sends (pap.go:164, :185) never run.
		{"pap-ring", 0},
	}
	for _, tc := range cases {
		t.Run(tc.design, func(t *testing.T) {
			s, err := ParseDesign(tc.design)
			if err != nil {
				t.Fatal(err)
			}
			e := buildEngine(t, topology.ClusterA(), nodes, ppn)
			// Rank 0 reads the counters at the start of a collective,
			// which no rank can finish before rank 0 has joined it. The
			// fewest mallocs of several windows is the count: a stray
			// allocation by another goroutine of the process lands in
			// one window, not in all.
			var mallocs [windows + 1]uint64
			err = e.W.Run(func(r *mpi.Rank) error {
				v := mpi.NewPhantom(mpi.Float32, n)
				for i := 0; i <= warm+windows*runs; i++ {
					if w := i - warm; r.Rank() == 0 && w >= 0 && w%runs == 0 {
						var m runtime.MemStats
						runtime.ReadMemStats(&m)
						mallocs[w/runs] = m.Mallocs
					}
					if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			fewest := mallocs[1] - mallocs[0]
			for w := 1; w < windows; w++ {
				fewest = min(fewest, mallocs[w+1]-mallocs[w])
			}
			got := float64(fewest) / (runs * nodes * ppn)
			t.Logf("%s: %.3f mallocs per rank-collective", tc.design, got)
			if got > tc.max {
				t.Fatalf("%s allocates %.3f objects per warm rank-collective, want <= %v", tc.design, got, tc.max)
			}
		})
	}
}
