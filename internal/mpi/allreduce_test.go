package mpi

import (
	"math/rand"
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// expectedSum computes the reference allreduce(sum) result for inputs
// in[rank][i].
func expectedSum(in [][]float64) []float64 {
	out := make([]float64, len(in[0]))
	for _, v := range in {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

// allreduceCase is one allreduce under test: a flat algorithm, or, at a
// depth above zero, the pipelined Rabenseifner with that many chunks.
type allreduceCase struct {
	alg   Algorithm
	depth int
}

// allreduceCases lists every flat algorithm, then the pipelined
// allreduce at depths 2, 3 and 5.
func allreduceCases() []allreduceCase {
	var cases []allreduceCase
	for _, alg := range FlatAlgorithms() {
		cases = append(cases, allreduceCase{alg: alg})
	}
	for _, k := range []int{2, 3, 5} {
		cases = append(cases, allreduceCase{alg: AlgRabenseifner, depth: k})
	}
	return cases
}

func (a allreduceCase) run(r *Rank, c *Comm, v *Vector) {
	if a.depth > 0 {
		r.AllreducePipelined(c, Sum, v, a.depth)
		return
	}
	r.Allreduce(c, a.alg, Sum, v)
}

// runAllreduce executes one allreduce over random float64 inputs and
// verifies every rank's result against the sequential reduction.
func runAllreduce(t *testing.T, tc allreduceCase, nodes, ppn, count int, seed int64) {
	t.Helper()
	w := smallWorld(t, topology.ClusterB(), nodes, ppn, Config{})
	p := w.Job.NumProcs()
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float64, p)
	for k := range in {
		in[k] = make([]float64, count)
		for i := range in[k] {
			in[k][i] = float64(rng.Intn(2000)-1000) / 16 // exactly representable
		}
	}
	want := expectedSum(in)
	err := w.Run(func(r *Rank) error {
		v := NewVector(Float64, count)
		copy(v.Float64s(), in[r.Rank()])
		tc.run(r, w.CommWorld(), v)
		for i := 0; i < count; i++ {
			got := v.At(i)
			d := got - want[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-9*float64(p) {
				t.Errorf("alg=%s depth=%d p=%d n=%d: rank %d elem %d: got %v want %v",
					tc.alg, tc.depth, p, count, r.Rank(), i, got, want[i])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceAllAlgorithmsAllShapes(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{
		{1, 1}, // p=1
		{2, 1}, // p=2
		{3, 1}, // p=3, non-power-of-two
		{2, 2}, // p=4
		{5, 1}, // p=5
		{3, 2}, // p=6
		{7, 1}, // p=7
		{2, 4}, // p=8
		{3, 3}, // p=9
		{4, 4}, // p=16
	}
	counts := []int{1, 2, 7, 64, 1000}
	for _, tc := range allreduceCases() {
		for _, s := range shapes {
			for _, n := range counts {
				runAllreduce(t, tc, s.nodes, s.ppn, n, int64(s.nodes*1000+s.ppn*10+n))
			}
		}
	}
}

func TestAllreduceCountSmallerThanRanks(t *testing.T) {
	// n < p stresses zero-length blocks in ring and Rabenseifner, and
	// n < depth one-element chunks in the pipelined allreduce.
	for _, tc := range allreduceCases() {
		runAllreduce(t, tc, 3, 3, 2, 99) // p=9, n=2
		runAllreduce(t, tc, 2, 4, 5, 98) // p=8, n=5
	}
}

func TestAllreduceIntegerExact(t *testing.T) {
	for _, alg := range FlatAlgorithms() {
		w := smallWorld(t, topology.ClusterB(), 3, 2, Config{})
		p := w.Job.NumProcs()
		err := w.Run(func(r *Rank) error {
			v := NewVector(Int64, 33)
			for i := 0; i < v.Len(); i++ {
				v.Set(i, float64((r.Rank()+1)*(i+1)))
			}
			r.Allreduce(w.CommWorld(), alg, Sum, v)
			sumRanks := p * (p + 1) / 2
			for i := 0; i < v.Len(); i++ {
				if v.At(i) != float64(sumRanks*(i+1)) {
					t.Errorf("alg=%s: elem %d = %v, want %d", alg, i, v.At(i), sumRanks*(i+1))
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceMaxMinProd(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 2, Config{})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 2)
		v.Set(0, float64(r.Rank()))
		v.Set(1, float64(-r.Rank()))
		r.Allreduce(c, AlgRecursiveDoubling, Max, v)
		if v.At(0) != 3 || v.At(1) != 0 {
			t.Errorf("max got (%v,%v)", v.At(0), v.At(1))
		}
		v.Set(0, float64(r.Rank()))
		v.Set(1, float64(-r.Rank()))
		r.Allreduce(c, AlgRabenseifner, Min, v)
		if v.At(0) != 0 || v.At(1) != -3 {
			t.Errorf("min got (%v,%v)", v.At(0), v.At(1))
		}
		v.Fill(2)
		r.Allreduce(c, AlgRing, Prod, v)
		if v.At(0) != 16 { // 2^4
			t.Errorf("prod got %v", v.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceUnknownAlgorithmPanics(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		defer func() {
			if recover() == nil {
				t.Error("unknown algorithm did not panic")
			}
		}()
		r.Allreduce(w.CommWorld(), Algorithm("nope"), Sum, NewVector(Float64, 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreducePipelinedDepthOutOfRangePanics(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		for _, k := range []int{0, MaxPipelineDepth(2) + 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("pipeline depth %d did not panic", k)
					}
				}()
				r.AllreducePipelined(w.CommWorld(), Sum, NewVector(Float64, 1), k)
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDeterministicTiming(t *testing.T) {
	// Identical runs give identical virtual end times.
	run := func() sim.Time {
		w := smallWorld(t, topology.ClusterC(), 4, 4, Config{})
		err := w.Run(func(r *Rank) error {
			v := NewPhantom(Float32, 4096)
			for i := 0; i < 3; i++ {
				r.Allreduce(w.CommWorld(), AlgRabenseifner, Sum, v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic timing: %v vs %v", a, b)
	}
}

func TestAllreduceTimingScalesWithSize(t *testing.T) {
	// Larger payloads must take strictly longer for every algorithm.
	for _, alg := range FlatAlgorithms() {
		timeFor := func(count int) sim.Time {
			w := smallWorld(t, topology.ClusterC(), 4, 2, Config{})
			err := w.Run(func(r *Rank) error {
				v := NewPhantom(Float32, count)
				r.Allreduce(w.CommWorld(), alg, Sum, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return w.Now()
		}
		small, large := timeFor(256), timeFor(256<<10)
		if large <= small {
			t.Errorf("alg=%s: 1MB (%v) not slower than 1KB (%v)", alg, large, small)
		}
	}
}

func TestRecursiveDoublingLatencyScalesLogarithmically(t *testing.T) {
	// Small-message RD time should grow roughly with lg p, not p.
	timeFor := func(nodes int) sim.Time {
		w := smallWorld(t, topology.ClusterB(), nodes, 1, Config{})
		err := w.Run(func(r *Rank) error {
			v := NewPhantom(Float32, 2)
			r.Allreduce(w.CommWorld(), AlgRecursiveDoubling, Sum, v)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	t4, t16 := timeFor(4), timeFor(16)
	// lg 16 / lg 4 = 2; allow slack but rule out linear growth (4x).
	ratio := float64(t16) / float64(t4)
	if ratio > 3 {
		t.Fatalf("RD latency ratio 16/4 nodes = %.2f, want ~2", ratio)
	}
}

func TestRingCheaperThanRDForLargeMessages(t *testing.T) {
	// Bandwidth-optimal algorithms move 2n per rank vs RD's n*lg p: for
	// big vectors on several nodes, ring must win.
	timeFor := func(alg Algorithm) sim.Time {
		w := smallWorld(t, topology.ClusterB(), 8, 1, Config{})
		err := w.Run(func(r *Rank) error {
			v := NewPhantom(Float32, 1<<20) // 4 MB
			r.Allreduce(w.CommWorld(), alg, Sum, v)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Now()
	}
	ring, rd := timeFor(AlgRing), timeFor(AlgRecursiveDoubling)
	if ring >= rd {
		t.Fatalf("ring (%v) not faster than recursive doubling (%v) at 4MB x 8 nodes", ring, rd)
	}
}
