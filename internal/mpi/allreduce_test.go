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

// runAllreduce executes one allreduce over random float64 inputs and
// verifies every rank's result against the sequential reduction.
func runAllreduce(t *testing.T, alg Algorithm, nodes, ppn, count int, seed int64) {
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
		r.Allreduce(w.CommWorld(), alg, Sum, v)
		for i := 0; i < count; i++ {
			got := v.At(i)
			d := got - want[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-9*float64(p) {
				t.Errorf("alg=%s p=%d n=%d: rank %d elem %d: got %v want %v",
					alg, p, count, r.Rank(), i, got, want[i])
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
	for _, alg := range FlatAlgorithms() {
		for _, s := range shapes {
			for _, n := range counts {
				runAllreduce(t, alg, s.nodes, s.ppn, n, int64(s.nodes*1000+s.ppn*10+n))
			}
		}
	}
}

func TestAllreduceCountSmallerThanRanks(t *testing.T) {
	// n < p stresses zero-length blocks in ring and Rabenseifner.
	for _, alg := range FlatAlgorithms() {
		runAllreduce(t, alg, 3, 3, 2, 99) // p=9, n=2
		runAllreduce(t, alg, 2, 4, 5, 98) // p=8, n=5
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

func TestAllreduceUserOp(t *testing.T) {
	// L1-norm accumulation as a user op: |a| + |b| is commutative and
	// associative (intermediate results are non-negative).
	absSum := NewUserOp("abssum", func(acc, in float64) float64 {
		if acc < 0 {
			acc = -acc
		}
		if in < 0 {
			in = -in
		}
		return acc + in
	})
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		v := NewVector(Float64, 1)
		if r.Rank() == 0 {
			v.Set(0, 3)
		} else {
			v.Set(0, -4)
		}
		r.Allreduce(w.CommWorld(), AlgRecursiveDoubling, absSum, v)
		// Note: |3| accumulated with |-4| = 7 regardless of direction.
		if v.At(0) != 7 {
			t.Errorf("user op allreduce got %v, want 7", v.At(0))
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
