// Package bench is the measurement harness: an osu_allreduce-style
// latency loop, an osu_mbw_mr-style multi-pair throughput benchmark, and
// one driver per figure of the paper's evaluation section, each returning
// a Table whose rows mirror what the paper plots.
package bench

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// SpecChooser picks an allreduce configuration for a message size, like a
// library's selection logic. It runs once per size, before the job's
// first event (it must be a pure function of its arguments).
type SpecChooser func(e *core.Engine, bytes int) core.Spec

// FixedSpec adapts a constant Spec to a SpecChooser.
func FixedSpec(s core.Spec) SpecChooser {
	return func(*core.Engine, int) core.Spec { return s }
}

// LibrarySpec adapts a library's decision table to a SpecChooser.
func LibrarySpec(lib core.Library) SpecChooser {
	return func(e *core.Engine, bytes int) core.Spec { return e.SpecFor(lib, bytes) }
}

// ChooserFor resolves a CLI's -lib/-design pair: the library's selector
// when lib is set, else the fixed spec core.ParseDesign names. The label
// is the library name or the spec's canonical design name.
func ChooserFor(lib, design string) (SpecChooser, string, error) {
	if lib != "" {
		if err := core.CheckLibrary(core.Library(lib)); err != nil {
			return nil, "", err
		}
		return LibrarySpec(core.Library(lib)), lib, nil
	}
	spec, err := core.ParseDesign(design)
	if err != nil {
		return nil, "", err
	}
	return FixedSpec(spec), spec.String(), nil
}

// ChooseSpecs picks the spec for each message size (rounded to whole
// float32 elements, as AllreduceLatency sends them) and validates it
// on e, so a bad spec is one error before any event runs rather than
// one per rank.
func ChooseSpecs(e *core.Engine, choose SpecChooser, sizes []int) ([]core.Spec, error) {
	specs := make([]core.Spec, len(sizes))
	for i, bytes := range sizes {
		specs[i] = choose(e, max(bytes/4, 1)*4)
		if err := e.Validate(specs[i]); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// AllreduceLatency measures the average allreduce latency (as rank 0 sees
// it, like osu_allreduce) for each message size, running `iters` timed
// iterations after `warmup` untimed ones, all within a single simulated
// job built with cfg. Payloads are phantom float32 vectors
// (MPI_FLOAT/MPI_SUM, the paper's microbenchmark configuration). cfg
// lets callers inject faults, arm the virtual-time watchdog, or attach a
// tracer; the zero Config is the healthy fabric.
func AllreduceLatency(cfg mpi.Config, cl *topology.Cluster, nodes, ppn int, choose SpecChooser, sizes []int, iters, warmup int) ([]sim.Duration, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("bench: iters = %d", iters)
	}
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		return nil, err
	}
	e := core.NewEngine(mpi.NewWorld(job, cfg))
	specs, err := ChooseSpecs(e, choose, sizes)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Duration, len(sizes))
	err = e.W.Run(func(r *mpi.Rank) error {
		world := e.W.CommWorld()
		for si, spec := range specs {
			v := mpi.NewPhantom(mpi.Float32, max(sizes[si]/4, 1))
			for i := 0; i < warmup; i++ {
				if err := e.Allreduce(r, spec, mpi.Sum, v); err != nil {
					return err
				}
			}
			r.Barrier(world)
			start := r.Now()
			for i := 0; i < iters; i++ {
				if err := e.Allreduce(r, spec, mpi.Sum, v); err != nil {
					return err
				}
			}
			elapsed := r.Now().Sub(start)
			r.Barrier(world)
			if r.Rank() == 0 {
				out[si] = elapsed / sim.Duration(iters)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LatencySeries runs AllreduceLatency and packages the result as a Series
// with Y in microseconds.
func LatencySeries(cfg mpi.Config, label string, cl *topology.Cluster, nodes, ppn int, choose SpecChooser, sizes []int, iters, warmup int) (Series, error) {
	lat, err := AllreduceLatency(cfg, cl, nodes, ppn, choose, sizes, iters, warmup)
	if err != nil {
		return Series{}, fmt.Errorf("%s: %w", label, err)
	}
	s := Series{Label: label, Points: make([]Point, len(sizes))}
	for i, bytes := range sizes {
		s.Points[i] = Point{X: bytes, Y: lat[i].Micros()}
	}
	return s, nil
}

// Paper-style size sweeps (powers of four, 4B to 1MB).
func sweepSizes(quick bool) []int {
	if quick {
		return []int{4, 256, 4 << 10, 64 << 10, 512 << 10}
	}
	return []int{4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
}

// smallSizes is the SHArP-relevant range of Figure 8.
func smallSizes(quick bool) []int {
	if quick {
		return []int{8, 256, 2 << 10}
	}
	return []int{4, 8, 16, 32, 64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10}
}
