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

// AllreduceLatency measures the average allreduce latency (as rank 0 sees
// it, like osu_allreduce) of spec for each message size, running `iters`
// timed iterations after `warmup` untimed ones, all within a single
// simulated job built with cfg. Payloads are phantom float32 vectors
// (MPI_FLOAT/MPI_SUM, the paper's microbenchmark configuration), so a
// size is rounded to whole elements. cfg lets callers inject faults, arm
// the virtual-time watchdog, or attach a tracer; the zero Config is the
// healthy fabric. spec is validated once, before the job starts, so a
// bad spec is one error rather than one per rank.
func AllreduceLatency(cfg mpi.Config, cl *topology.Cluster, nodes, ppn int, spec core.Spec, sizes []int, iters, warmup int) ([]sim.Duration, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("bench: iters = %d", iters)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("bench: warmup = %d", warmup)
	}
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		return nil, err
	}
	e := core.NewEngine(mpi.NewWorld(job, cfg))
	if err := e.Validate(spec); err != nil {
		return nil, err
	}
	out := make([]sim.Duration, len(sizes))
	err = e.W.Run(func(r *mpi.Rank) error {
		world := e.W.CommWorld()
		for si, bytes := range sizes {
			v := mpi.NewPhantom(mpi.Float32, max(bytes/4, 1))
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
func LatencySeries(cfg mpi.Config, label string, cl *topology.Cluster, nodes, ppn int, spec core.Spec, sizes []int, iters, warmup int) (Series, error) {
	lat, err := AllreduceLatency(cfg, cl, nodes, ppn, spec, sizes, iters, warmup)
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
