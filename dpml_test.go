package dpml

import (
	"strings"
	"testing"
)

func TestNewSystemAndAllreduce(t *testing.T) {
	eng, err := NewSystem(ClusterB(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.W.Run(func(r *Rank) error {
		v := NewVector(Float64, 100)
		v.Fill(float64(r.Rank() + 1))
		if err := eng.Allreduce(r, DPML(2), Sum, v); err != nil {
			return err
		}
		if v.At(0) != 36 { // sum 1..8
			t.Errorf("rank %d got %v, want 36", r.Rank(), v.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(ClusterA(), 100, 4); err == nil {
		t.Fatal("accepted too many nodes")
	}
	if _, err := NewSystem(ClusterA(), 4, 100); err == nil {
		t.Fatal("accepted too many ppn")
	}
}

func TestPublicClusters(t *testing.T) {
	if len(Clusters()) != 4 {
		t.Fatal("expected four paper clusters")
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		if ClusterByName(name) == nil {
			t.Fatalf("ClusterByName(%q) = nil", name)
		}
	}
	if !ClusterA().Sharp.Available {
		t.Fatal("cluster A must expose SHArP")
	}
}

func TestPublicSpecsAndLibraries(t *testing.T) {
	if len(Libraries()) != 3 {
		t.Fatal("want three libraries")
	}
	if DPML(4).Leaders != 4 || DPMLPipelined(2, 8).Chunks != 8 {
		t.Fatal("spec constructors broken")
	}
	if HostBased().Leaders != 1 {
		t.Fatal("HostBased must be the single-leader hierarchy")
	}
	if Flat(AlgRing).Alg != AlgRing {
		t.Fatal("Flat constructor broken")
	}
	if BestLeaders(28, 1<<20) != 16 {
		t.Fatal("BestLeaders table changed unexpectedly at 1MB")
	}
}

func TestPublicCostModel(t *testing.T) {
	p := CostModelFor(ClusterB()).With(448, 16, 8, 64<<10)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// At 64KB on 448 procs the multi-leader design must win.
	if p.DPML() <= 0 || p.DPML() >= p.RecursiveDoubling() {
		t.Fatalf("model: DPML %g vs flat RD %g", p.DPML(), p.RecursiveDoubling())
	}
}

func TestPublicFigureRuns(t *testing.T) {
	tab, err := Figure("fig8a", BenchOptions{Quick: true, Iters: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 3 {
		t.Fatalf("fig8a series = %d, want 3", len(tab.Series))
	}
	if !strings.Contains(tab.String(), "host-based") {
		t.Fatal("render missing host-based series")
	}
	if len(FigureIDs()) < 19 {
		t.Fatalf("only %d figures registered", len(FigureIDs()))
	}
}

func TestPublicHPCG(t *testing.T) {
	eng, err := NewSystem(ClusterA(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunHPCG(eng, HPCGConfig{Nx: 8, Ny: 8, Nz: 4, Iterations: 15, Real: true, Spec: HostBased()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualDrop < 10 {
		t.Fatalf("residual drop %v", res.ResidualDrop)
	}
}

func TestPublicMiniAMR(t *testing.T) {
	eng, err := NewSystem(ClusterC(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMiniAMR(eng, MiniAMRConfig{BlocksPerRank: 4, BlockBytes: 512, Steps: 2, Spec: Spec{Design: DesignProposed}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RefineTime <= 0 {
		t.Fatal("no refinement time recorded")
	}
}

func TestPublicUserOpAndPhantom(t *testing.T) {
	op := NewUserOp("avgmax", func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	})
	eng, err := NewSystem(ClusterB(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.W.Run(func(r *Rank) error {
		v := NewVector(Float64, 4)
		v.Fill(float64(r.Rank()))
		if err := eng.Allreduce(r, Flat(AlgRecursiveDoubling), op, v); err != nil {
			return err
		}
		if v.At(0) != 3 {
			t.Errorf("user op via facade got %v", v.At(0))
		}
		ph := NewPhantom(Float32, 1024)
		return eng.Allreduce(r, DPML(2), Sum, ph)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicMBW(t *testing.T) {
	thr, err := MultiPairThroughput(WorldConfig{}, ClusterC(), MBWConfig{Pairs: 2, Window: 8, Iters: 1}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if thr[0] <= 0 {
		t.Fatal("no throughput measured")
	}
}

func TestPublicTracing(t *testing.T) {
	rec := NewTraceRecorder(0)
	job, err := NewJob(ClusterB(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(job, WorldConfig{Trace: rec})
	eng := NewEngine(w)
	err = w.Run(func(r *Rank) error {
		v := NewPhantom(Float32, 1024)
		return eng.Allreduce(r, DPML(2), Sum, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded via public API")
	}
	seen := map[TraceKind]bool{}
	for _, e := range rec.Events() {
		seen[e.Kind] = true
	}
	for _, k := range []TraceKind{TraceSend, TraceRecv, TraceShmCopy, TraceCompute, TraceCollective} {
		if !seen[k] {
			t.Errorf("kind %s missing from trace", k)
		}
	}
}

func TestPublicDNN(t *testing.T) {
	eng, err := NewSystem(ClusterD(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDNN(eng, DNNConfig{
		Layers: []DNNLayer{{Name: "fc", Elems: 1 << 16}},
		Steps:  1, Spec: Spec{Design: DesignProposed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommTime <= 0 {
		t.Fatal("no comm time recorded")
	}
}
