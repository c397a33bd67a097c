// Package miniamr implements a kernel with the communication signature of
// the miniAMR proxy application's mesh-refinement phase, the workload of
// Figure 11b-c: each refinement step evaluates per-block criteria
// (compute), performs a global allreduce over the per-block refinement
// histogram — a message whose size grows with the number of processes —
// and a small control allreduce for the load-balancing decision. With the
// paper's settings (refinement every step) this phase dominates the
// application, so the refinement time is the reported metric.
package miniamr

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
)

// Config sizes one run.
type Config struct {
	// BlocksPerRank is the number of mesh blocks each rank owns; the
	// refinement histogram has BlocksPerRank*NumProcs entries, which is
	// what makes miniAMR's allreduces "relatively large" at scale.
	BlocksPerRank int
	// BlockBytes is the per-block field size the criteria evaluation
	// touches.
	BlockBytes int
	// Steps is the number of refinement steps (the paper sets the
	// refinement frequency so this dominates >98% of runtime).
	Steps int
	// Real carries actual data through the reductions.
	Real bool
	// Spec is the allreduce design, the quantity Figure 11b-c varies
	// (a selector picks the configuration per message size).
	Spec core.Spec
}

// Result summarizes one run (rank 0's view).
type Result struct {
	// RefineTime is the total virtual time of the refinement loop — the
	// metric of Figure 11b-c.
	RefineTime sim.Duration
	// RefinedBlocks is the global number of blocks flagged for
	// refinement over the run (Real mode; sanity check).
	RefinedBlocks int64
	Steps         int
}

func (c Config) validate(e *core.Engine) error {
	switch {
	case c.BlocksPerRank <= 0:
		return fmt.Errorf("miniamr: BlocksPerRank = %d", c.BlocksPerRank)
	case c.BlockBytes <= 0:
		return fmt.Errorf("miniamr: BlockBytes = %d", c.BlockBytes)
	case c.Steps <= 0:
		return fmt.Errorf("miniamr: Steps = %d", c.Steps)
	}
	return e.Validate(c.Spec)
}

// Run executes the refinement kernel on the engine's world (it calls
// World.Run).
func Run(e *core.Engine, cfg Config) (Result, error) {
	if err := cfg.validate(e); err != nil {
		return Result{}, err
	}
	var res Result
	err := e.W.Run(func(r *mpi.Rank) error {
		out, err := run(e, r, cfg)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			res = out
		}
		return nil
	})
	return res, err
}

func run(e *core.Engine, r *mpi.Rank, cfg Config) (Result, error) {
	p := e.W.Job.NumProcs()
	globalBlocks := cfg.BlocksPerRank * p
	me := r.Rank()

	mkHist := func() *mpi.Vector {
		if cfg.Real {
			return mpi.NewVector(mpi.Int64, globalBlocks)
		}
		return mpi.NewPhantom(mpi.Int64, globalBlocks)
	}
	start := r.Now()
	var refined int64
	for step := 0; step < cfg.Steps; step++ {
		// Criteria evaluation over the local blocks' fields.
		r.Compute(cfg.BlocksPerRank * cfg.BlockBytes)

		// Global refinement histogram: each rank contributes flags for
		// its own blocks; the allreduce gives everyone the full map.
		hist := mkHist()
		if cfg.Real {
			for b := 0; b < cfg.BlocksPerRank; b++ {
				// Deterministic pseudo-criterion: refine block when its
				// id clashes with the step.
				if (me*cfg.BlocksPerRank+b+step)%3 == 0 {
					hist.Set(me*cfg.BlocksPerRank+b, 1)
				}
			}
		}
		if err := e.Allreduce(r, cfg.Spec, mpi.Sum, hist); err != nil {
			return Result{}, err
		}
		if cfg.Real {
			for i := 0; i < globalBlocks; i++ {
				refined += int64(hist.At(i))
			}
		}

		// Small control allreduce: global imbalance metric.
		ctl := mpi.NewPhantom(mpi.Float64, 1)
		if cfg.Real {
			ctl = mpi.NewVector(mpi.Float64, 1)
			ctl.Set(0, float64(cfg.BlocksPerRank))
		}
		if err := e.Allreduce(r, cfg.Spec, mpi.Max, ctl); err != nil {
			return Result{}, err
		}

		// Apply the refinement locally.
		r.Compute(cfg.BlocksPerRank * cfg.BlockBytes / 4)
	}
	return Result{
		RefineTime:    r.Now().Sub(start),
		RefinedBlocks: refined,
		Steps:         cfg.Steps,
	}, nil
}
