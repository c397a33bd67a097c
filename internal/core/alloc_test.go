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
// from the world's free lists. What a collective still allocates — event
// and request bookkeeping across all 64 ranks — must stay below one
// rank's payload.
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
