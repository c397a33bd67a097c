package core

import (
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// TestSharpNodeContextSwitches pins the exact proc handoff count of
// a small latency-bound run: ten 256 B allreduces with the SHArP
// node-leader design on 8×8 ranks of cluster A. A rank parks once per
// shared-memory copy, and a leader is switched to only when its gather
// is complete, so a collective costs 264 handoffs plus 64 to start the
// ranks. Waking the leader on every slot and parking each copy twice
// cost 440 per collective (4,464 here). The event count pins that the
// schedule itself did not move. The handoff count depends on the shard
// count, so the run is forced serial.
func TestSharpNodeContextSwitches(t *testing.T) {
	const colls = 10
	job, err := topology.NewJob(topology.ClusterA(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mpi.NewWorld(job, mpi.Config{Shards: 1}))
	err = e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewPhantom(mpi.Float32, 64)
		for i := 0; i < colls; i++ {
			if err := e.Allreduce(r, Spec{Design: DesignSharpNode}, mpi.Sum, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.W.SimStats()
	if st.ContextSwitch != 2704 || st.Events != 3690 {
		t.Fatalf("context switches %d, events %d; want 2704 and 3690", st.ContextSwitch, st.Events)
	}
}
