package core

import (
	"fmt"
	"testing"

	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// The design-conformance matrix: every design x every datatype x
// {sum, max, min} x awkward (non-power-of-two) counts and shapes, checked
// element-wise against a serial reduction oracle. This is the VSS-style
// guarantee (Hovland, "Verifying the Correctness of AllReduce Algorithms
// in MPICH"): the designs must be demonstrably correct everywhere, not
// just fast on the benchmarked shapes.
//
// Buffers are rank-seeded with small integers (|v| <= 8), so every
// reduction is exact in all four datatypes regardless of combining order
// (sums stay far below float32's 2^24 exact-integer range), and the
// oracle can demand bit equality.

// conformanceDesigns returns the full design list for a SHArP-capable
// cluster, labeled for subtest names.
func conformanceDesigns() []struct {
	name string
	spec Spec
} {
	return []struct {
		name string
		spec Spec
	}{
		{"flat", Flat(mpi.AlgRecursiveDoubling)},
		{"host-based", DPML(1)},
		{"dpml-3", DPML(3)},
		{"dpml-pipe-2x3", DPMLPipelined(2, 3)},
		{"sharp-node", Spec{Design: DesignSharpNode}},
		{"sharp-socket", Spec{Design: DesignSharpSocket}},
		// Extension families: segment/group parameters deliberately do
		// not divide the test counts or shapes evenly.
		{"dualroot-s3", DualRoot(3)},
		{"dualroot-auto", DualRoot(0)},
		{"genall-g4", GenAll(4)},
		{"pap-sorted", PAPSorted()},
		{"pap-ring", PAPRing()},
	}
}

// conformanceOps is the op subset whose kernels all four datatypes
// implement exactly.
func conformanceOps() []*mpi.Op { return []*mpi.Op{mpi.Sum, mpi.Max, mpi.Min} }

func conformanceDtypes() []struct {
	name  string
	dtype mpi.Datatype
} {
	return []struct {
		name  string
		dtype mpi.Datatype
	}{
		{"f32", mpi.Float32}, {"f64", mpi.Float64},
		{"i32", mpi.Int32}, {"i64", mpi.Int64},
	}
}

// seedValue is the rank-seeded pattern: element i on rank k. Values lie
// in [-8, 8], keeping every op exact in every datatype.
func seedValue(k, i int) float64 { return float64((k*31+i*7)%17 - 8) }

// runConformance performs one allreduce on the given engine and verifies
// every rank's result element-wise against the serial oracle.
func runConformance(t *testing.T, e *Engine, s Spec, op *mpi.Op, dt mpi.Datatype, count int) {
	t.Helper()
	p := e.W.Job.NumProcs()
	// Serial oracle: fold the rank buffers in rank order with the same
	// op kernels the designs use.
	oracle := mpi.NewVector(dt, count)
	for i := 0; i < count; i++ {
		oracle.Set(i, seedValue(0, i))
	}
	tmp := mpi.NewVector(dt, count)
	for k := 1; k < p; k++ {
		for i := 0; i < count; i++ {
			tmp.Set(i, seedValue(k, i))
		}
		op.Apply(oracle, tmp)
	}
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(dt, count)
		for i := 0; i < count; i++ {
			v.Set(i, seedValue(r.Rank(), i))
		}
		if err := e.Allreduce(r, s, op, v); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			if v.At(i) != oracle.At(i) {
				t.Errorf("rank %d elem %d: got %v want %v", r.Rank(), i, v.At(i), oracle.At(i))
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConformanceMatrix(t *testing.T) {
	// 3 nodes x 5 ppn: non-power-of-two in both dimensions, on the
	// SHArP-capable cluster so the offload designs run their real path.
	cl := topology.ClusterA()
	const nodes, ppn = 3, 5
	for _, d := range conformanceDesigns() {
		for _, dt := range conformanceDtypes() {
			for _, op := range conformanceOps() {
				for _, count := range []int{1, 61} {
					name := fmt.Sprintf("%s/%s/%s/n%d", d.name, dt.name, op.Name(), count)
					t.Run(name, func(t *testing.T) {
						e := buildEngine(t, cl, nodes, ppn)
						runConformance(t, e, d.spec, op, dt.dtype, count)
					})
				}
			}
		}
	}
}

func TestConformanceOddShape(t *testing.T) {
	// A second awkward shape (2 nodes x 7 ppn) and a larger odd count,
	// on the design subset with distinct communication structure.
	cl := topology.ClusterA()
	for _, d := range conformanceDesigns() {
		for _, dt := range conformanceDtypes() {
			t.Run(d.name+"/"+dt.name, func(t *testing.T) {
				e := buildEngine(t, cl, 2, 7)
				runConformance(t, e, d.spec, mpi.Sum, dt.dtype, 255)
			})
		}
	}
}

// TestConformanceUnderFaults reruns the matrix (one count, all designs x
// dtypes x ops) with a fault plan installed: stragglers, degraded links,
// and throttled NICs reshape the timing, and SHArP outages force the
// offload designs through their host fallback — none of which may change
// a single result bit.
func TestConformanceUnderFaults(t *testing.T) {
	cl := topology.ClusterA()
	const nodes, ppn = 3, 5
	spec, err := faults.ParseSpec("all@0.7")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 7
	plan := spec.Instantiate(faults.Shape{Ranks: nodes * ppn, Nodes: nodes})
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(faults.Shape{Ranks: nodes * ppn, Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	for _, d := range conformanceDesigns() {
		for _, dt := range conformanceDtypes() {
			for _, op := range conformanceOps() {
				name := fmt.Sprintf("%s/%s/%s", d.name, dt.name, op.Name())
				t.Run(name, func(t *testing.T) {
					e := NewEngine(mpi.NewWorld(job, mpi.Config{Faults: plan}))
					runConformance(t, e, d.spec, op, dt.dtype, 61)
				})
			}
		}
	}
}
