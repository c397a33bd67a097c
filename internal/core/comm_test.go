package core

import (
	"fmt"
	"slices"
	"testing"

	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// The engine builds every design's communicators once (NewEngine, or
// genall's on a group size's first use) and all members share them:
// their messages match only because they hold the same objects. These
// tests run the designs that read those tables back to back in one
// world and check the tables' membership.

// The shape is ragged for genall: p = 10 is a multiple of neither 3 nor
// 4, and ⌈√10⌉ = 4 makes the auto size share genall-g4's table.
const commNodes, commPPN = 5, 2

func commEngine(t *testing.T, plan *faults.Plan, shards int) *Engine {
	t.Helper()
	job, err := topology.NewJob(topology.ClusterA(), commNodes, commPPN)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(faults.Shape{Ranks: job.NumProcs(), Nodes: commNodes}); err != nil {
		t.Fatal(err)
	}
	return NewEngine(mpi.NewWorld(job, mpi.Config{Faults: plan, Shards: shards}))
}

// commRun is one collective of a back-to-back sequence.
type commRun struct {
	spec  Spec
	count int // float64 elements
}

// runBackToBack runs the sequence reps times in e's world, every rank
// checking every result against the rank-order oracle.
func runBackToBack(t *testing.T, e *Engine, reps int, runs []commRun) {
	t.Helper()
	p := e.W.Job.NumProcs()
	oracle := func(i int) float64 {
		sum := 0.0
		for k := 0; k < p; k++ {
			sum += seedValue(k, i)
		}
		return sum
	}
	err := e.W.Run(func(r *mpi.Rank) error {
		for rep := 0; rep < reps; rep++ {
			for _, run := range runs {
				v := mpi.NewVector(mpi.Float64, run.count)
				for i := 0; i < run.count; i++ {
					v.Set(i, seedValue(r.Rank(), i))
				}
				if err := e.Allreduce(r, run.spec, mpi.Sum, v); err != nil {
					return err
				}
				for i := 0; i < run.count; i++ {
					if v.At(i) != oracle(i) {
						return fmt.Errorf("rep %d %s n%d: rank %d elem %d: got %v want %v",
							rep, run.spec, run.count, r.Rank(), i, v.At(i), oracle(i))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// members lists c's global ranks in comm-rank order.
func members(c *mpi.Comm) []int {
	m := make([]int, c.Size())
	for i := range m {
		m[i] = c.Global(i)
	}
	return m
}

// TestEngineCommTables runs two explicit genall group sizes, the auto
// size at the three sizes it picks (1, ⌈√p⌉ and p) and both arrival-
// aware designs back to back, many times, under a straggler plan, at 1
// and 4 shards. Every result must equal the oracle, and genall must have
// built exactly one table per group size that needs one.
func TestEngineCommTables(t *testing.T) {
	plan := &faults.Plan{Stragglers: []faults.Straggler{
		{Rank: 3, Factor: 4},
		{Rank: 7, Factor: 2, End: sim.Time(50 * sim.Microsecond)},
	}}
	runs := []commRun{
		{GenAll(3), 61},
		{GenAll(4), 61},
		{GenAll(0), 1},        // 8 B: g = 1
		{GenAll(0), 1 << 10},  // 8 KB: g = ⌈√10⌉ = 4
		{GenAll(0), 32 << 10}, // 256 KB: g = p
		{PAPSorted(), 61},
		{PAPRing(), 61},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			e := commEngine(t, plan, shards)
			runBackToBack(t, e, 5, runs)
			var got []int
			for g := range e.groups {
				got = append(got, g)
			}
			if slices.Sort(got); !slices.Equal(got, []int{3, 4}) {
				t.Fatalf("genall built tables for group sizes %v, want [3 4]", got)
			}
			for _, tc := range []struct {
				g       int
				groups  [][]int
				leaders []int
			}{
				{3, [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9}}, []int{0, 3, 6, 9}},
				{4, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}, []int{0, 4, 8}},
			} {
				gc := e.groups[tc.g]
				var groups [][]int
				for _, c := range gc.groups {
					groups = append(groups, members(c))
				}
				if fmt.Sprint(groups) != fmt.Sprint(tc.groups) || !slices.Equal(members(gc.leaders), tc.leaders) {
					t.Errorf("g=%d: groups %v leaders %v, want %v and %v",
						tc.g, groups, members(gc.leaders), tc.groups, tc.leaders)
				}
			}
		})
	}
}

// TestArrivalComms covers each branch of the arrival schedule: no
// straggler (both communicators are the world's), a plan whose
// stragglers all have Factor 1 (nobody late), one straggler, and every
// rank late, where everyone counts as early. Equal scores keep rank
// order. Both arrival-aware designs must reduce correctly on each.
func TestArrivalComms(t *testing.T) {
	const p = commNodes * commPPN
	allLate := &faults.Plan{}
	for r := 0; r < p; r++ {
		// Later ranks arrive earlier, in pairs of equal score.
		allLate.Stragglers = append(allLate.Stragglers,
			faults.Straggler{Rank: r, Factor: 2 + float64((p-1-r)/2)})
	}
	for _, tc := range []struct {
		name    string
		plan    *faults.Plan
		arrival []int
		early   int
	}{
		{"none", nil, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, p},
		{"factor1", &faults.Plan{Stragglers: []faults.Straggler{
			{Rank: 2, Factor: 1}, {Rank: 5, Factor: 1, End: sim.Time(1000 * sim.Microsecond)},
		}}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, p},
		{"one", &faults.Plan{Stragglers: []faults.Straggler{
			{Rank: 3, Factor: 3},
		}}, []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 3}, p - 1},
		{"all-late", allLate, []int{8, 9, 6, 7, 4, 5, 2, 3, 0, 1}, p},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := commEngine(t, tc.plan, 1)
			if got := members(e.arrival); !slices.Equal(got, tc.arrival) {
				t.Errorf("arrival order %v, want %v", got, tc.arrival)
			}
			if got := members(e.early); !slices.Equal(got, tc.arrival[:tc.early]) {
				t.Errorf("early set %v, want %v", got, tc.arrival[:tc.early])
			}
			if tc.early == p && e.early != e.arrival {
				t.Error("everyone is early, but the early set is a communicator of its own")
			}
			if tc.plan == nil && e.arrival != e.W.CommWorld() {
				t.Error("no plan, but the arrival order is a communicator of its own")
			}
			runBackToBack(t, e, 2, []commRun{{PAPSorted(), 61}, {PAPRing(), 61}})
		})
	}
}
