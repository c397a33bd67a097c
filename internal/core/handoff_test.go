package core

import (
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// TestSharpNodeContextSwitches pins the exact proc handoff count of
// a small latency-bound run: ten 256 B allreduces with the SHArP
// node-leader design on 8×8 ranks of cluster A. A rank parks once per
// shared-memory phase (put, fold, get) while the kernel runs its
// copies, folds and waits in its place (see shmOp), so a collective
// costs 144 handoffs plus 64 to start the ranks. Parking once per
// copy, with the leader switched to only when its gather was complete,
// cost 264 per collective (2,704 here); waking the leader on every
// slot and parking each copy twice cost 440 (4,464). The event count
// pins that the schedule itself did not move. The handoff count
// depends on the shard count, so the run is forced serial.
func TestSharpNodeContextSwitches(t *testing.T) {
	pinSwitches(t, Spec{Design: DesignSharpNode}, 64, 1504, 3690)
}

// TestDPMLContextSwitches pins the same for ten 64 KB DPML(4)
// allreduces, whose phases each run four copies or a leader's eight
// slots: 6,472 handoffs, where parking once per copy, fold and wait
// cost 13,848.
func TestDPMLContextSwitches(t *testing.T) {
	pinSwitches(t, DPML(4), 16<<10, 6472, 26088)
}

// pinSwitches runs ten allreduces of elems float32 elements with spec
// on 8×8 ranks of cluster A on one kernel and checks the handoff and
// event counts.
func pinSwitches(t *testing.T, spec Spec, elems int, switches, events uint64) {
	t.Helper()
	const colls = 10
	job, err := topology.NewJob(topology.ClusterA(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mpi.NewWorld(job, mpi.Config{Shards: 1}))
	err = e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewPhantom(mpi.Float32, elems)
		for i := 0; i < colls; i++ {
			if err := e.Allreduce(r, spec, mpi.Sum, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.W.SimStats()
	if st.ContextSwitch != switches || st.Events != events {
		t.Fatalf("%s: context switches %d, events %d; want %d and %d", spec, st.ContextSwitch, st.Events, switches, events)
	}
}
