package core

import (
	"fmt"
	"testing"

	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// Arrival-pattern property tests for the Proficz designs: under a
// predicted-imbalanced arrival pattern the arrival-aware algorithms must
// finish no later than the symmetric ring baseline, and their reordered
// reductions must stay bit-identical to the rank-order oracle at every
// shard count.

// papPlan instantiates a seeded high-intensity straggler plan on the
// 4x4 cluster-A shape the schedule explorer uses.
func papPlan(t *testing.T, seed uint64) *faults.Plan {
	t.Helper()
	spec, err := faults.ParseSpec("straggler@0.8")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	sh := faults.Shape{Ranks: 16, Nodes: 4}
	plan := spec.Instantiate(sh)
	if err := plan.Validate(sh); err != nil {
		t.Fatal(err)
	}
	return plan
}

// papArrivalDelays scales the plan's per-rank lateness scores into
// arrival offsets with a 2ms spread — large against the transfer times
// of a 2KB allreduce, putting the run squarely in the high-imbalance
// regime the PAP designs target.
func papArrivalDelays(e *Engine) []sim.Duration {
	_, score := arrivalOrder(e.W)
	maxScore := 0.0
	for _, s := range score {
		if s > maxScore {
			maxScore = s
		}
	}
	delays := make([]sim.Duration, len(score))
	if maxScore == 0 {
		return delays
	}
	for k, s := range score {
		delays[k] = sim.Duration(s / maxScore * 2e6) // ns
	}
	return delays
}

// papElapsed runs one allreduce under the plan with plan-predicted
// arrival offsets, verifies every rank against the rank-order oracle,
// and returns the completion time and max arrival spread from the
// metrics registry.
func papElapsed(t *testing.T, plan *faults.Plan, s Spec) (elapsed, spread float64) {
	t.Helper()
	// 2KB: the latency-bound sizes the arrival-aware designs target (a
	// bandwidth-optimal ring still wins the post-arrival tail once the
	// payload is large — that is papAwareSpec's size switch).
	const count = 256
	job, err := topology.NewJob(topology.ClusterA(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mpi.NewWorld(job, mpi.Config{Faults: plan, Trace: trace.New(0)}))
	delays := papArrivalDelays(e)

	oracle := mpi.NewVector(mpi.Float64, count)
	for i := 0; i < count; i++ {
		oracle.Set(i, seedValue(0, i))
	}
	tmp := mpi.NewVector(mpi.Float64, count)
	for k := 1; k < 16; k++ {
		for i := 0; i < count; i++ {
			tmp.Set(i, seedValue(k, i))
		}
		mpi.Sum.Apply(oracle, tmp)
	}
	err = e.W.Run(func(r *mpi.Rank) error {
		r.Proc().Sleep(delays[r.Rank()])
		v := mpi.NewVector(mpi.Float64, count)
		for i := 0; i < count; i++ {
			v.Set(i, seedValue(r.Rank(), i))
		}
		if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			if v.At(i) != oracle.At(i) {
				return fmt.Errorf("rank %d elem %d: got %v want %v", r.Rank(), i, v.At(i), oracle.At(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := e.W.Metrics()
	el, ok := m.Get("sim.elapsed")
	if !ok {
		t.Fatal("sim.elapsed missing from metrics registry")
	}
	sp, _ := m.Get("coll.arrival_spread.max")
	return el, sp
}

// TestPAPCompletionUnderImbalance: for several seeded straggler plans,
// the arrival-aware designs must complete no later than the flat ring
// on the same plan and arrival offsets — the overlap of early-rank work
// with straggler delay is the whole point of the family.
func TestPAPCompletionUnderImbalance(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		plan := papPlan(t, seed)
		if len(plan.Stragglers) == 0 {
			t.Fatalf("seed %d: plan has no stragglers", seed)
		}
		ring, ringSpread := papElapsed(t, plan, Flat(mpi.AlgRing))
		// The scenario must actually be imbalanced: the collective spans
		// must see an arrival spread on the order of the injected 2ms.
		if ringSpread < 1e6 {
			t.Fatalf("seed %d: ring arrival spread %.0fns, want >= 1ms — scenario not imbalanced", seed, ringSpread)
		}
		for _, d := range []struct {
			name string
			spec Spec
		}{
			{"pap-sorted", PAPSorted()},
			{"pap-ring", PAPRing()},
		} {
			got, _ := papElapsed(t, plan, d.spec)
			if got > ring {
				t.Errorf("seed %d: %s completed at %.0fns, later than ring baseline %.0fns", seed, d.name, got, ring)
			}
		}
	}
}

// TestPAPShardInvariance: the reordered PAP reductions must produce
// results bit-identical to the rank-order oracle at every shard count —
// the reordering is a pure function of the shared fault plan, never of
// the kernel partitioning. The net column sets the deprecated, ignored
// Config.NetShards field: its rows of 2 check that the field stays inert.
func TestPAPShardInvariance(t *testing.T) {
	plan := papPlan(t, 7)
	combos := []struct{ shards, net int }{
		{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2},
	}
	for _, d := range []struct {
		name string
		spec Spec
	}{
		{"pap-sorted", PAPSorted()},
		{"pap-ring", PAPRing()},
	} {
		for _, c := range combos {
			t.Run(fmt.Sprintf("%s/shards%d-net%d", d.name, c.shards, c.net), func(t *testing.T) {
				job, err := topology.NewJob(topology.ClusterA(), 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(mpi.NewWorld(job, mpi.Config{
					Faults: plan, Shards: c.shards, NetShards: c.net,
				}))
				runConformance(t, e, d.spec, mpi.Sum, mpi.Float64, 255)
			})
		}
	}
}
