package shmseg

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/race"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// waitGather parks p until want slots of leader j's segment are written
// and returns the slot array.
func waitGather(p *sim.Proc, op *Op, j, want int) []*mpi.Vector {
	slots, ok := op.ArmGather(p, j, want)
	if !ok {
		p.Park()
	}
	return slots
}

// waitResult parks p until leader j's result is published and returns
// it.
func waitResult(p *sim.Proc, op *Op, j int) *mpi.Vector {
	for {
		if res := op.ArmResult(p, j); res != nil {
			return res
		}
		p.Park()
	}
}

func TestRegionFullGatherPublishDrain(t *testing.T) {
	const ppn, leaders = 4, 2
	rg := NewRegion(ppn)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	results := make([][]float64, ppn)
	for local := 0; local < ppn; local++ {
		local := local
		k.Spawn(fmt.Sprintf("p%d", local), func(p *sim.Proc) {
			op := rg.Open(local, leaders)
			// Phase 1: deposit one partition per leader.
			for j := 0; j < leaders; j++ {
				v := mpi.NewVector(mpi.Float64, 2)
				v.Fill(float64(10*local + j))
				op.Put(j, local, v)
			}
			// Phase 2+3 (leaders only): reduce slots, publish sum.
			if local < leaders {
				slots := waitGather(p, op, local, ppn)
				acc := slots[0].Clone()
				for i := 1; i < ppn; i++ {
					mpi.Sum.Apply(acc, slots[i])
				}
				op.Publish(local, acc)
			}
			// Phase 4: read both results back.
			out := make([]float64, 0, 2*leaders)
			for j := 0; j < leaders; j++ {
				res := waitResult(p, op, j)
				out = append(out, res.At(0), res.At(1))
			}
			results[local] = out
			op.Done()
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
	if len(rg.ops) != 0 {
		t.Fatalf("op state leaked: %d pending", len(rg.ops))
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
			op := rg.Open(local, 2)
			v := mpi.NewVector(mpi.Float64, 1)
			v.Fill(float64(local + 1))
			op.Put(leaderOf[local], local, v)
			if local == 0 || local == 2 {
				lead := socketOf[local]
				slots := waitGather(p, op, lead, 2)
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
				op.Publish(lead, acc)
			}
			waitResult(p, op, leaderOf[local])
			op.Done()
		})
	}
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if sums[0] != 3 || sums[1] != 7 { // 1+2 and 3+4
		t.Fatalf("socket sums %v, want [3 7]", sums)
	}
	if len(rg.ops) != 0 {
		t.Fatal("op state leaked")
	}
}

func TestRegionConcurrentOpsDoNotAlias(t *testing.T) {
	// Two back-to-back operations stay separate even when their
	// lifetimes overlap.
	rg := NewRegion(2)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	var got [2][2]float64
	for local := 0; local < 2; local++ {
		local := local
		k.Spawn(fmt.Sprintf("p%d", local), func(p *sim.Proc) {
			for seq := uint64(0); seq < 2; seq++ {
				op := rg.Open(local, 1)
				v := mpi.NewVector(mpi.Float64, 1)
				v.Fill(float64(100*(seq+1) + uint64(local)))
				op.Put(0, local, v)
				if local == 0 {
					slots := waitGather(p, op, 0, 2)
					acc := slots[0].Clone()
					mpi.Sum.Apply(acc, slots[1])
					op.Publish(0, acc)
				}
				res := waitResult(p, op, 0)
				got[local][seq] = res.At(0)
				op.Done()
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

// TestRegionMisusePanics checks that each misuse panics with its own
// message, a stale handle's Done included: on a drained operation it
// would otherwise count towards whichever operation recycles the state.
func TestRegionMisusePanics(t *testing.T) {
	v := mpi.NewVector(mpi.Float64, 1)
	cases := []struct {
		want string
		f    func(rg *Region)
	}{
		{"NewRegion(0)", func(*Region) { NewRegion(0) }},
		{"Open local rank 2 of 2", func(rg *Region) { rg.Open(2, 1) }},
		{"Put leader 1 of 1", func(rg *Region) { rg.Open(0, 1).Put(1, 0, v) }},
		{"Put local rank 2 of 2", func(rg *Region) { rg.Open(0, 1).Put(0, 2, v) }},
		{"Put leader -1 of 1", func(rg *Region) { rg.Open(0, 1).Put(-1, 0, v) }},
		{"slot (0,0) written twice", func(rg *Region) {
			op := rg.Open(0, 1)
			op.Put(0, 0, v)
			op.Put(0, 0, v)
		}},
		{"op 0 leader count disagreement: 1 vs 2", func(rg *Region) {
			rg.Open(0, 1)
			rg.Open(1, 2)
		}},
		{"leader 0 published twice", func(rg *Region) {
			op := rg.Open(0, 1)
			op.Publish(0, v)
			op.Publish(0, v)
		}},
		{"Done on drained op 0", func(rg *Region) {
			op := rg.Open(0, 1)
			rg.Open(1, 1).Done()
			op.Done()
			op.Done()
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("got panic %q, want one containing %q", msg, tc.want)
				}
			}()
			tc.f(NewRegion(2))
		}()
	}
}

func TestArmGatherWantValidation(t *testing.T) {
	rg := NewRegion(2)
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	k.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("ArmGather(want=3) with ppn=2 did not panic")
			}
		}()
		rg.Open(0, 1).ArmGather(p, 0, 3)
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionOpCycleDoesNotAllocate runs whole operations on a two-rank
// region: the leader parks on its gather until its peer's Put, and the
// peer parks on the result until the leader's Publish. Once drained
// operation state is recycled, accumulator included, a full Open/Put/
// ArmGather/Accumulator/Publish/ArmResult/Done cycle allocates nothing.
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
		cycle := func() {
			op := rg.Open(0, 1)
			op.Put(0, 0, v[0])
			waitGather(p, op, 0, 2)
			op.Publish(0, op.Accumulator(0, v[0]))
			waitResult(p, op, 0)
			op.Done()
		}
		for i := 0; i < warm; i++ {
			cycle()
		}
		allocs = testing.AllocsPerRun(runs, cycle)
	})
	k.Spawn("peer", func(p *sim.Proc) {
		// AllocsPerRun makes one extra, unmeasured call.
		for i := 0; i < warm+1+runs; i++ {
			op := rg.Open(1, 1)
			op.Put(0, 1, v[1])
			waitResult(p, op, 0)
			op.Done()
		}
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("an operation cycle allocates %v objects, want 0", allocs)
	}
	if len(rg.ops) != 0 {
		t.Fatalf("op state leaked: %d pending", len(rg.ops))
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
	// Local rank 0 opens every operation; each drains with two Dones.
	open := func() *Op { return rg.Open(0, 1) }
	drain := func(op *Op) {
		op.Done()
		op.Done()
	}

	op0 := open()
	a0 := op0.Accumulator(0, src)
	if a0 == src || a0.At(3) != 3 {
		t.Fatalf("accumulator %p holds %v, want a copy of %p's 3", a0, a0.At(3), src)
	}
	op1 := open() // overlaps op0
	b := op1.Accumulator(0, src)
	if b == a0 {
		t.Fatal("two in-flight operations share accumulator storage")
	}
	drain(op0)
	if race.Enabled && !math.IsNaN(a0.At(0)) {
		t.Fatalf("drained accumulator reads %v, want NaN poison", a0.At(0))
	}
	src.Fill(5)
	op2 := open()
	if a2 := op2.Accumulator(0, src); a2 != a0 || a2.At(0) != 5 {
		t.Fatalf("after drain: got %p holding %v, want the drained %p reloaded with 5", a2, a2.At(0), a0)
	}
	drain(op1)
	drain(op2)

	for _, other := range []*mpi.Vector{mpi.NewVector(mpi.Float32, 5), mpi.NewVector(mpi.Float64, 4)} {
		op := open()
		if got := op.Accumulator(0, other); got == a0 || got == b || got.Type() != other.Type() || got.Len() != other.Len() {
			t.Fatalf("shape %v[%d]: got %v[%d] storage %p, want fresh storage", other.Type(), other.Len(), got.Type(), got.Len(), got)
		}
		drain(op)
	}

	ph := mpi.NewPhantom(mpi.Float32, 4)
	op := open()
	if got := op.Accumulator(0, ph); got != ph {
		t.Fatal("phantom source was not returned as is")
	}
	drain(op)
	if len(rg.ops) != 0 {
		t.Fatalf("op state leaked: %d pending", len(rg.ops))
	}
}

// openSixth drains five operations on rg as local rank local, so the
// operation it returns is op 5: the number the wait reports name.
func openSixth(rg *Region, local, leaders int) *Op {
	for i := 0; i < 5; i++ {
		rg.Open(local, leaders).Done()
	}
	return rg.Open(local, leaders)
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
		op := openSixth(rg, r.Place().LocalRank, 2)
		switch r.Rank() {
		case 0: // leader 1 of op 5 waits for slots nobody writes
			waitGather(r.Proc(), op, 1, 4)
		case 1: // leader 0 of op 5 never publishes
			waitResult(r.Proc(), op, 0)
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

// memCopy runs one intra-socket shared-memory copy of bytes as r.
func memCopy(r *mpi.Rank, bytes int) {
	r.ArmMemCopy(false, bytes)
	r.Proc().Park()
	r.EndWork()
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
		op := openSixth(rg, r.Place().LocalRank, 2)
		switch r.Rank() {
		case 0:
			waitGather(r.Proc(), op, 1, 4)
		case 1:
			waitResult(r.Proc(), op, 0)
		case 2:
			r.Recv(w.CommWorld(), 3, 7, mpi.NewVector(mpi.Float64, 1))
		case 3: // the flow of a 1 GB copy outlasts the deadline
			memCopy(r, 1<<30)
		case 4: // the deadline falls inside this copy's startup
			r.Proc().Sleep(deadline - startup/2)
			memCopy(r, 1<<10)
		case 5: // and inside this empty copy's, its only part
			r.Proc().Sleep(deadline - startup/2)
			memCopy(r, 0)
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
