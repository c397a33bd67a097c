package shmseg

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/race"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

func TestRegionFullGatherPublishDrain(t *testing.T) {
	const ppn, leaders = 4, 2
	rg := NewRegion(ppn)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	results := make([][]float64, ppn)
	for local := 0; local < ppn; local++ {
		local := local
		k.Spawn(fmt.Sprintf("p%d", local), func(p *sim.Proc) {
			// Phase 1: deposit one partition per leader.
			for j := 0; j < leaders; j++ {
				v := mpi.NewVector(mpi.Float64, 2)
				v.Fill(float64(10*local + j))
				rg.Put(0, leaders, j, local, v)
			}
			// Phase 2+3 (leaders only): reduce slots, publish sum.
			if local < leaders {
				slots := rg.GatherWait(p, 0, leaders, local, ppn)
				acc := slots[0].Clone()
				for i := 1; i < ppn; i++ {
					mpi.Sum.Apply(acc, slots[i])
				}
				rg.Publish(0, leaders, local, acc)
			}
			// Phase 4: read both results back.
			out := make([]float64, 0, 2*leaders)
			for j := 0; j < leaders; j++ {
				res := rg.ResultWait(p, 0, leaders, j)
				out = append(out, res.At(0), res.At(1))
			}
			results[local] = out
			rg.DoneCopy(0)
		})
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	// Leader j's sum over locals of (10*local + j): 60 + 4j.
	for local, out := range results {
		for j := 0; j < leaders; j++ {
			want := float64(60 + 4*j)
			if out[2*j] != want || out[2*j+1] != want {
				t.Fatalf("local %d leader %d: got %v, want %v", local, j, out[2*j], want)
			}
		}
	}
	if rg.PendingOps() != 0 {
		t.Fatalf("op state leaked: %d pending", rg.PendingOps())
	}
}

func TestRegionPartialGatherForSocketLeaders(t *testing.T) {
	// 4 local ranks, 2 socket leaders; each rank deposits only with its
	// socket's leader, which waits for exactly its 2 ranks.
	const ppn = 4
	rg := NewRegion(ppn)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	socketOf := []int{0, 0, 1, 1}
	leaderOf := []int{0, 0, 1, 1} // leader index == socket
	var sums [2]float64
	for local := 0; local < ppn; local++ {
		local := local
		k.Spawn(fmt.Sprintf("p%d", local), func(p *sim.Proc) {
			v := mpi.NewVector(mpi.Float64, 1)
			v.Fill(float64(local + 1))
			rg.Put(7, 2, leaderOf[local], local, v)
			if local == 0 || local == 2 {
				lead := socketOf[local]
				slots := rg.GatherWait(p, 7, 2, lead, 2)
				var acc *mpi.Vector
				for _, s := range slots {
					if s == nil {
						continue
					}
					if acc == nil {
						acc = s.Clone()
					} else {
						mpi.Sum.Apply(acc, s)
					}
				}
				sums[lead] = acc.At(0)
				rg.Publish(7, 2, lead, acc)
			}
			rg.ResultWait(p, 7, 2, leaderOf[local])
			rg.DoneCopy(7)
		})
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if sums[0] != 3 || sums[1] != 7 { // 1+2 and 3+4
		t.Fatalf("socket sums %v, want [3 7]", sums)
	}
	if rg.PendingOps() != 0 {
		t.Fatal("op state leaked")
	}
}

func TestRegionConcurrentOpsDoNotAlias(t *testing.T) {
	// Two back-to-back operations with different sequence numbers stay
	// separate even when their lifetimes overlap.
	rg := NewRegion(2)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var got [2][2]float64
	for local := 0; local < 2; local++ {
		local := local
		k.Spawn(fmt.Sprintf("p%d", local), func(p *sim.Proc) {
			for seq := uint64(0); seq < 2; seq++ {
				v := mpi.NewVector(mpi.Float64, 1)
				v.Fill(float64(100*(seq+1) + uint64(local)))
				rg.Put(seq, 1, 0, local, v)
				if local == 0 {
					slots := rg.GatherWait(p, seq, 1, 0, 2)
					acc := slots[0].Clone()
					mpi.Sum.Apply(acc, slots[1])
					rg.Publish(seq, 1, 0, acc)
				}
				res := rg.ResultWait(p, seq, 1, 0)
				got[local][seq] = res.At(0)
				rg.DoneCopy(seq)
			}
		})
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	for local := 0; local < 2; local++ {
		if got[local][0] != 201 || got[local][1] != 401 {
			t.Fatalf("local %d results %v, want [201 401]", local, got[local])
		}
	}
}

func TestRegionMisusePanics(t *testing.T) {
	rg := NewRegion(2)
	v := mpi.NewVector(mpi.Float64, 1)
	cases := []func(){
		func() { NewRegion(0) },
		func() { rg.Put(0, 1, 1, 0, v) },  // leader out of range
		func() { rg.Put(0, 1, 0, 2, v) },  // local rank out of range
		func() { rg.Put(0, 1, -1, 0, v) }, // negative leader
		func() {
			rg.Put(1, 1, 0, 0, v)
			rg.Put(1, 1, 0, 0, v) // double write
		},
		func() {
			rg.Put(2, 1, 0, 0, v)
			rg.Put(2, 2, 1, 0, v) // leader count disagreement
		},
		func() {
			rg.Publish(3, 1, 0, v)
			rg.Publish(3, 1, 0, v) // double publish
		},
		func() { rg.DoneCopy(99) }, // unknown op
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGatherWaitWantValidation(t *testing.T) {
	rg := NewRegion(2)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("GatherWait(want=3) with ppn=2 did not panic")
			}
		}()
		rg.GatherWait(p, 0, 1, 0, 3)
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionOpCycleDoesNotAllocate runs whole operations on a two-rank
// region: the leader parks in GatherWait until its peer's Put, and the
// peer parks in ResultWait until the leader's Publish. Once drained
// operation state is recycled, accumulator included, a full Put/
// GatherWait/Accumulator/Publish/ResultWait/DoneCopy cycle allocates
// nothing.
func TestRegionOpCycleDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const warm, runs = 4, 100
	rg := NewRegion(2)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	v := [2]*mpi.Vector{mpi.NewVector(mpi.Float64, 8), mpi.NewVector(mpi.Float64, 8)}
	var allocs float64
	k.Spawn("leader", func(p *sim.Proc) {
		seq := uint64(0)
		op := func() {
			rg.Put(seq, 1, 0, 0, v[0])
			rg.GatherWait(p, seq, 1, 0, 2)
			rg.Publish(seq, 1, 0, rg.Accumulator(seq, 1, 0, v[0]))
			rg.ResultWait(p, seq, 1, 0)
			rg.DoneCopy(seq)
			seq++
		}
		for i := 0; i < warm; i++ {
			op()
		}
		allocs = testing.AllocsPerRun(runs, op)
	})
	k.Spawn("peer", func(p *sim.Proc) {
		// AllocsPerRun makes one extra, unmeasured call.
		for seq := uint64(0); seq < warm+1+runs; seq++ {
			rg.Put(seq, 1, 0, 1, v[1])
			rg.ResultWait(p, seq, 1, 0)
			rg.DoneCopy(seq)
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("an operation cycle allocates %v objects, want 0", allocs)
	}
	if rg.PendingOps() != 0 {
		t.Fatalf("op state leaked: %d pending", rg.PendingOps())
	}
}

// TestAccumulatorRecycling checks that a segment's accumulator storage
// follows its operation state: reused once the operation drains, never
// shared by two operations in flight, reallocated when the shape changes,
// and poisoned at drain in the race build.
func TestAccumulatorRecycling(t *testing.T) {
	rg := NewRegion(2)
	src := mpi.NewVector(mpi.Float32, 4)
	src.Fill(3)
	drain := func(seq uint64) {
		rg.DoneCopy(seq)
		rg.DoneCopy(seq)
	}

	a0 := rg.Accumulator(0, 1, 0, src)
	if a0 == src || a0.At(3) != 3 {
		t.Fatalf("accumulator %p holds %v, want a copy of %p's 3", a0, a0.At(3), src)
	}
	b := rg.Accumulator(1, 1, 0, src) // seq 1 overlaps seq 0
	if b == a0 {
		t.Fatal("two in-flight operations share accumulator storage")
	}
	drain(0)
	if race.Enabled && !math.IsNaN(a0.At(0)) {
		t.Fatalf("drained accumulator reads %v, want NaN poison", a0.At(0))
	}
	src.Fill(5)
	if a2 := rg.Accumulator(2, 1, 0, src); a2 != a0 || a2.At(0) != 5 {
		t.Fatalf("after drain: got %p holding %v, want the drained %p reloaded with 5", a2, a2.At(0), a0)
	}
	drain(1)
	drain(2)

	for _, other := range []*mpi.Vector{mpi.NewVector(mpi.Float32, 5), mpi.NewVector(mpi.Float64, 4)} {
		seq := uint64(3)
		if got := rg.Accumulator(seq, 1, 0, other); got == a0 || got == b || got.Type() != other.Type() || got.Len() != other.Len() {
			t.Fatalf("shape %v[%d]: got %v[%d] storage %p, want fresh storage", other.Type(), other.Len(), got.Type(), got.Len(), got)
		}
		drain(seq)
	}

	ph := mpi.NewPhantom(mpi.Float32, 4)
	if got := rg.Accumulator(4, 1, 0, ph); got != ph {
		t.Fatal("phantom source was not returned as is")
	}
	if rg.PendingOps() != 0 {
		t.Fatalf("phantom accumulator opened op state: %d pending", rg.PendingOps())
	}
}

// TestDeadlockReportNamesWaits pins the wait reasons a deadlock report
// gives for the shared-memory phases and for a blocking receive. They are
// formatted only when the report is built, so this is what keeps them.
func TestDeadlockReportNamesWaits(t *testing.T) {
	job, err := topology.NewJob(topology.ClusterB(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(job, mpi.Config{})
	rg := NewRegion(4)
	err = w.Run(func(r *mpi.Rank) error {
		switch r.Rank() {
		case 0: // leader 1 of op 5 waits for slots nobody writes
			rg.GatherWait(r.Proc(), 5, 2, 1, 4)
		case 1: // leader 0 of op 5 never publishes
			rg.ResultWait(r.Proc(), 5, 2, 0)
		case 2: // rank 3 never sends tag 7
			r.Recv(w.CommWorld(), 3, 7, mpi.NewVector(mpi.Float64, 1))
		}
		return nil
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want a deadlock", err)
	}
	want := []string{
		"rank0: shm gather op=5 leader=1",
		"rank1: shm result op=5 leader=0",
		"rank2: wait recv {comm:0 src:3 tag:7}",
	}
	if !reflect.DeepEqual(dl.Blocked, want) {
		t.Fatalf("blocked procs\n%q\nwant\n%q", dl.Blocked, want)
	}
}

// TestWatchdogReportNamesWaits pins the same wait reasons in a watchdog
// report, plus both halves of a shared-memory copy: a rank still in the
// copy's startup, empty or not, and one whose flow has started all read
// "shm copy".
func TestWatchdogReportNamesWaits(t *testing.T) {
	const deadline = 10 * sim.Microsecond
	job, err := topology.NewJob(topology.ClusterB(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(job, mpi.Config{Watchdog: deadline})
	startup := job.Cluster.Mem.CopyStartup
	rg := NewRegion(6)
	err = w.Run(func(r *mpi.Rank) error {
		switch r.Rank() {
		case 0:
			rg.GatherWait(r.Proc(), 5, 2, 1, 4)
		case 1:
			rg.ResultWait(r.Proc(), 5, 2, 0)
		case 2:
			r.Recv(w.CommWorld(), 3, 7, mpi.NewVector(mpi.Float64, 1))
		case 3: // the flow of a 1 GB copy outlasts the deadline
			r.MemCopy(false, 1<<30)
		case 4: // the deadline falls inside this copy's startup
			r.Proc().Sleep(deadline - startup/2)
			r.MemCopy(false, 1<<10)
		case 5: // and inside this empty copy's, its only part
			r.Proc().Sleep(deadline - startup/2)
			r.MemCopy(false, 0)
		}
		return nil
	})
	var wd *sim.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("got %v, want a watchdog report", err)
	}
	want := []string{
		"rank0: shm gather op=5 leader=1",
		"rank1: shm result op=5 leader=0",
		"rank2: wait recv {comm:0 src:3 tag:7}",
		"rank3: shm copy",
		"rank4: shm copy",
		"rank5: shm copy",
	}
	if !reflect.DeepEqual(wd.Blocked, want) {
		t.Fatalf("blocked procs\n%q\nwant\n%q", wd.Blocked, want)
	}
}
