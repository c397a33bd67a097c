package explore

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
)

// TestSeededExploreAllDesigns runs every explorable design under a
// handful of seeded schedules on the healthy fabric: every schedule
// must pass the full invariant battery, and the salts must actually
// reach schedules the canonical order does not.
func TestSeededExploreAllDesigns(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Scenario{Nodes: 4, PPN: 4, Count: 61, Design: d}, Options{Schedules: 4, Seed: 1})
			if err != nil {
				t.Fatalf("exploration failed:\n%v", err)
			}
			if rep.Schedules != 5 { // canonical + 4 seeded
				t.Fatalf("ran %d schedules, want 5", rep.Schedules)
			}
			if rep.Distinct < 2 {
				t.Errorf("salts reached only %d distinct schedule(s); perturbation is not biting", rep.Distinct)
			}
		})
	}
}

// TestSeededExploreUnderFaults layers the exploration on a faulted
// fabric: every perturbed schedule of a degraded run must still
// reduce exactly and keep its trace accounting consistent.
func TestSeededExploreUnderFaults(t *testing.T) {
	for _, spec := range []string{"all@0.7", "straggler@1.0"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Scenario{Nodes: 4, PPN: 4, Count: 61, Design: "dpml-3", Faults: spec, FaultSeed: 7},
				Options{Schedules: 4, Seed: 3})
			if err != nil {
				t.Fatalf("exploration failed:\n%v", err)
			}
			if rep.Distinct < 2 {
				t.Errorf("only %d distinct schedules under faults", rep.Distinct)
			}
		})
	}
}

// TestSystematicSmall explores a 2x2 job systematically and checks the
// frontier actually branches: distinct behaviors well beyond the
// canonical one, all passing the battery, and the whole run
// reproducible — two invocations produce identical reports.
func TestSystematicSmall(t *testing.T) {
	sc := Scenario{Nodes: 2, PPN: 2, Count: 9, Design: "flat"}
	opts := Options{Systematic: true, MaxSchedules: 40}
	rep1, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("systematic exploration failed:\n%v", err)
	}
	if rep1.Distinct < 5 {
		t.Errorf("systematic frontier reached only %d distinct schedules", rep1.Distinct)
	}
	rep2, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("second run failed:\n%v", err)
	}
	if !reflect.DeepEqual(rep1.Results, rep2.Results) {
		t.Errorf("systematic exploration is not reproducible:\nrun1: %+v\nrun2: %+v", rep1.Results, rep2.Results)
	}
}

// TestSystematicCoverage16 is the acceptance floor: at 16 ranks the
// systematic frontier must reach at least 100 behaviorally distinct
// schedules, every one passing the invariants.
func TestSystematicCoverage16(t *testing.T) {
	if testing.Short() {
		t.Skip("systematic 16-rank coverage is explorecheck-scale; skipped in -short")
	}
	rep, err := Run(Scenario{Nodes: 4, PPN: 4, Count: 61, Design: "dpml-3"},
		Options{Systematic: true, MaxSchedules: 200, MinDistinct: 100, Workers: 4})
	if err != nil {
		t.Fatalf("exploration failed:\n%v", err)
	}
	if rep.Distinct < 100 {
		t.Fatalf("reached %d distinct schedules, want >= 100", rep.Distinct)
	}
}

// TestExploreDeterminismAcrossEnvironment fixes the exploration seed
// and varies everything the host is allowed to vary — kernel shards,
// net shards, sweep workers, GOMAXPROCS — and requires bit-identical
// reports: same digests, same events, same failures (none).
func TestExploreDeterminismAcrossEnvironment(t *testing.T) {
	base := Scenario{Nodes: 2, PPN: 2, Count: 13, Design: "dpml-pipe-2x3"}
	opts := Options{Schedules: 3, Seed: 42}
	ref, err := Run(base, opts)
	if err != nil {
		t.Fatalf("reference run failed:\n%v", err)
	}
	check := func(name string, rep *Report, err error) {
		if err != nil {
			t.Fatalf("%s: exploration failed:\n%v", name, err)
		}
		if rep.Canonical != ref.Canonical || !reflect.DeepEqual(rep.Results, ref.Results) {
			t.Errorf("%s: report diverged from reference\nref: %+v\ngot: %+v", name, ref.Results, rep.Results)
		}
	}
	for _, shards := range []int{2, 4} {
		sc := base
		sc.Shards = shards
		rep, err := Run(sc, opts)
		check("shards", rep, err)
	}
	o := opts
	o.Workers = 4
	rep, err := Run(base, o)
	check("workers", rep, err)

	prev := runtime.GOMAXPROCS(2)
	rep, err = Run(base, opts)
	runtime.GOMAXPROCS(prev)
	check("gomaxprocs", rep, err)
}

// TestReproSaltRerunsExactSchedule checks the repro path: rerunning a
// seeded schedule by its explicit salt reproduces the same digest.
func TestReproSaltRerunsExactSchedule(t *testing.T) {
	sc := Scenario{Nodes: 2, PPN: 2, Count: 9, Design: "flat"}
	rep, err := Run(sc, Options{Schedules: 2, Seed: 9})
	if err != nil {
		t.Fatalf("exploration failed:\n%v", err)
	}
	seeded := rep.Results[1] // results[0] is canonical
	salt := mix64(9 + 1)
	again, err := Run(sc, Options{Salts: []uint64{salt}})
	if err != nil {
		t.Fatalf("repro run failed:\n%v", err)
	}
	if got := again.Results[1].Digest; got != seeded.Digest {
		t.Errorf("repro digest %s != original %s", got, seeded.Digest)
	}
}

// orderBugWorkload plants a deliberate arrival-order bug: each rank,
// after an identical compute block, folds into a node-shared cell with
// a non-commutative update and reports its own snapshot. The fold
// order is exactly the same-instant wakeup order on the node's LP —
// legal for the kernel to permute — so the result is schedule-
// dependent: the classic bug the explorer exists to catch. Per-world
// state lives in a map so concurrent explored schedules stay isolated.
func orderBugWorkload(nodes int) func(e *core.Engine, r *mpi.Rank) (*mpi.Vector, error) {
	var mu sync.Mutex
	cells := map[*mpi.World][]float64{}
	return func(e *core.Engine, r *mpi.Rank) (*mpi.Vector, error) {
		w := r.World()
		mu.Lock()
		c, ok := cells[w]
		if !ok {
			c = make([]float64, nodes)
			cells[w] = c
		}
		mu.Unlock()
		r.Compute(1 << 14)
		node := r.Place().Node
		c[node] = c[node]*2 + float64(r.Rank()+1)
		v := mpi.NewVector(mpi.Float64, 1)
		v.Set(0, c[node])
		return v, nil
	}
}

// TestMutationOrderBugCaught is the mutation test: the explorer must
// flag the planted order-sensitive workload via the result-invariance
// check, with a self-contained repro line, while still completing the
// full exploration (errors.Join, not fail-fast).
func TestMutationOrderBugCaught(t *testing.T) {
	sc := Scenario{Nodes: 2, PPN: 4, Count: 61, Workload: orderBugWorkload(2)}
	rep, err := Run(sc, Options{Schedules: 6, Seed: 11})
	if err == nil {
		t.Fatal("explorer missed the planted ordering bug")
	}
	msg := err.Error()
	if !strings.Contains(msg, "result invariance") {
		t.Errorf("failure not attributed to result invariance:\n%v", msg)
	}
	if !strings.Contains(msg, "repro: dpml-verify") || !strings.Contains(msg, "-salt") {
		t.Errorf("failure lacks a self-contained repro line:\n%v", msg)
	}
	if rep.Schedules != 7 {
		t.Errorf("exploration stopped early: %d schedules, want 7", rep.Schedules)
	}

	// Systematic mode must catch it too — deterministically, via a
	// single targeted tie inversion.
	_, err = Run(sc, Options{Systematic: true, MaxSchedules: 20})
	if err == nil {
		t.Fatal("systematic explorer missed the planted ordering bug")
	}
	if !strings.Contains(err.Error(), "-swaps") {
		t.Errorf("systematic failure lacks a swap-set repro line:\n%v", err)
	}
}

// TestBadScenarioFailsAtSetup: a scenario that cannot run fails once,
// with one explore: error and no report, before any schedule runs —
// not once per rank as a schedule failure, and not with a panic.
func TestBadScenarioFailsAtSetup(t *testing.T) {
	for _, c := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"too-many-leaders", Scenario{Design: "dpml-9", Nodes: 4, PPN: 2}, "explore: core: 9 leaders with ppn=2"},
		{"negative-count", Scenario{Count: -1}, "explore: negative count -1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Run(c.sc, Options{Schedules: 1})
			if rep != nil || err == nil || err.Error() != c.want {
				t.Fatalf("got report %v, error %q; want no report and %q", rep, err, c.want)
			}
		})
	}
}
