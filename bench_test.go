package dpml

import (
	"fmt"
	"testing"
)

// Benchmarks, one per reproduced figure/table, plus ablation benches for
// the design choices DESIGN.md calls out. All run at "quick" scale so the
// full `go test -bench=.` sweep completes in minutes; use cmd/dpml-bench
// without -quick for the paper-scale job shapes.

func benchFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := Figure(id, BenchOptions{Quick: true, Iters: 2, Warmup: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Series) == 0 {
			b.Fatal("empty table")
		}
	}
}

// Figure 1: communication characteristics (relative multi-pair throughput).
func BenchmarkFigure1a(b *testing.B) { benchFigure(b, "fig1a") }
func BenchmarkFigure1b(b *testing.B) { benchFigure(b, "fig1b") }
func BenchmarkFigure1c(b *testing.B) { benchFigure(b, "fig1c") }
func BenchmarkFigure1d(b *testing.B) { benchFigure(b, "fig1d") }

// Figures 4-7: leader-count sweeps on the four clusters.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "fig4") }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "fig5") }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "fig7") }

// Figure 8: SHArP node-leader vs socket-leader vs host-based.
func BenchmarkFigure8a(b *testing.B) { benchFigure(b, "fig8a") }
func BenchmarkFigure8b(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFigure8c(b *testing.B) { benchFigure(b, "fig8c") }

// Figures 9-10: comparison against tuned library baselines.
func BenchmarkFigure9a(b *testing.B) { benchFigure(b, "fig9a") }
func BenchmarkFigure9b(b *testing.B) { benchFigure(b, "fig9b") }
func BenchmarkFigure9c(b *testing.B) { benchFigure(b, "fig9c") }
func BenchmarkFigure9d(b *testing.B) { benchFigure(b, "fig9d") }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "fig10") }

// Figure 11: application kernels.
func BenchmarkFigure11a(b *testing.B) { benchFigure(b, "fig11a") }
func BenchmarkFigure11b(b *testing.B) { benchFigure(b, "fig11b") }
func BenchmarkFigure11c(b *testing.B) { benchFigure(b, "fig11c") }

// Section 5: analytic model vs simulation.
func BenchmarkModelTable(b *testing.B) { benchFigure(b, "model") }

// --- Ablation benches ---

// benchLatency reports the simulated allreduce latency (us) as a custom
// metric while measuring harness wall cost.
func benchLatency(b *testing.B, cl *Cluster, nodes, ppn int, spec Spec, bytes int) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		lat, err := AllreduceLatency(WorldConfig{}, cl, nodes, ppn, FixedSpec(spec), []int{bytes}, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = lat[0].Micros()
	}
	b.ReportMetric(last, "virtual-us/op")
}

// Leader-count ablation (the central design knob, Figures 4-7).
func BenchmarkAblationLeaders(b *testing.B) {
	for _, l := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			benchLatency(b, ClusterB(), 8, 16, DPML(l), 512<<10)
		})
	}
}

// Pipeline-depth ablation (Section 4.2 / Eq. 5 trade-off).
func BenchmarkAblationPipelineDepth(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchLatency(b, ClusterC(), 8, 16, DPMLPipelined(16, k), 4<<20)
		})
	}
}

// Flat algorithm ablation (the inter-leader building blocks).
func BenchmarkAblationFlatAlgorithms(b *testing.B) {
	for _, alg := range []Algorithm{AlgRecursiveDoubling, AlgRing, AlgRabenseifner, AlgReduceBcast} {
		b.Run(string(alg), func(b *testing.B) {
			benchLatency(b, ClusterB(), 8, 4, Flat(alg), 64<<10)
		})
	}
}

// SHArP design ablation (Section 4.3).
func BenchmarkAblationSharpDesigns(b *testing.B) {
	specs := map[string]Spec{
		"host-based":    HostBased(),
		"node-leader":   {Design: DesignSharpNode},
		"socket-leader": {Design: DesignSharpSocket},
	}
	for name, spec := range specs {
		spec := spec
		b.Run(name, func(b *testing.B) {
			benchLatency(b, ClusterA(), 8, 28, spec, 256)
		})
	}
}

// Cross-cluster ablation: the proposed hybrid on each architecture.
func BenchmarkAblationClusters(b *testing.B) {
	for _, cl := range Clusters() {
		cl := cl
		b.Run(cl.Name, func(b *testing.B) {
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				lat, err := AllreduceLatency(WorldConfig{}, cl, 8, 16, LibrarySpec(LibProposed), []int{64 << 10}, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = lat[0].Micros()
			}
			b.ReportMetric(last, "virtual-us/op")
		})
	}
}

// Simulator-core microbenchmarks: how fast the harness itself is.
func BenchmarkSimulatorAllreduceEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := NewSystem(ClusterB(), 4, 8)
		if err != nil {
			b.Fatal(err)
		}
		err = eng.W.Run(func(r *Rank) error {
			v := NewPhantom(Float32, 1<<14)
			return eng.Allreduce(r, DPML(8), Sum, v)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
