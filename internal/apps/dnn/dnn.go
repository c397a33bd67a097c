// Package dnn implements a synchronous data-parallel training step with
// the communication signature the paper's introduction motivates: "many
// applications in newer fields such as deep learning extensively use
// medium and large message reductions". Each step runs per-layer backprop
// compute and averages gradients with allreduce; a bucketing knob merges
// small layer gradients into larger messages — moving them from the
// latency-bound zone into the range where DPML's multi-leader design
// pays — which is exactly the kind of message-size engineering the
// paper's Figure 1 analysis informs.
package dnn

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
)

// Layer describes one parameter tensor.
type Layer struct {
	Name  string
	Elems int // float32 gradient elements
}

// ResNet50ish returns a layer mix with the size spread of a mid-size CNN:
// many small bias/norm tensors, several medium convolutions, a few large
// fully connected blocks.
func ResNet50ish() []Layer {
	var layers []Layer
	for i := 0; i < 16; i++ {
		layers = append(layers, Layer{Name: fmt.Sprintf("bn%d", i), Elems: 512})
	}
	for i := 0; i < 8; i++ {
		layers = append(layers, Layer{Name: fmt.Sprintf("conv%d", i), Elems: 64 << 10})
	}
	layers = append(layers,
		Layer{Name: "fc1", Elems: 2 << 20},
		Layer{Name: "fc2", Elems: 1 << 20},
	)
	return layers
}

// Config sizes one training run.
type Config struct {
	Layers []Layer
	Steps  int
	// BucketBytes merges consecutive layers' gradients into buckets of
	// at least this many bytes before the allreduce (0 = one allreduce
	// per layer, like naive gradient averaging).
	BucketBytes int
	// Spec is the allreduce design (a selector picks the configuration
	// per bucket size).
	Spec core.Spec
	// ComputePerElem is the simulated backprop cost per gradient
	// element in bytes-equivalent compute (default 8).
	ComputePerElem int
}

// Result summarizes one run (rank 0's view).
type Result struct {
	StepTime   sim.Duration // average per step
	CommTime   sim.Duration // allreduce portion per step
	Allreduces int          // per step
	Steps      int
}

func (c Config) validate(e *core.Engine) error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("dnn: no layers")
	}
	for _, l := range c.Layers {
		if l.Elems <= 0 {
			return fmt.Errorf("dnn: layer %q has %d elements", l.Name, l.Elems)
		}
	}
	if c.Steps <= 0 {
		return fmt.Errorf("dnn: %d steps", c.Steps)
	}
	if c.BucketBytes < 0 {
		return fmt.Errorf("dnn: negative bucket size")
	}
	return e.Validate(c.Spec)
}

// buckets groups consecutive layers into allreduce payloads of at least
// BucketBytes (the last bucket may be smaller).
func (c Config) buckets() []int {
	var out []int
	cur := 0
	for _, l := range c.Layers {
		cur += l.Elems
		if c.BucketBytes == 0 || cur*4 >= c.BucketBytes {
			out = append(out, cur)
			cur = 0
		}
	}
	if cur > 0 {
		out = append(out, cur)
	}
	return out
}

// Run executes the training kernel on the engine's world (it calls
// World.Run).
func Run(e *core.Engine, cfg Config) (Result, error) {
	if err := cfg.validate(e); err != nil {
		return Result{}, err
	}
	if cfg.ComputePerElem <= 0 {
		cfg.ComputePerElem = 8
	}
	buckets := cfg.buckets()
	var res Result
	err := e.W.Run(func(r *mpi.Rank) error {
		grads := make([]*mpi.Vector, len(buckets))
		for i, n := range buckets {
			grads[i] = mpi.NewPhantom(mpi.Float32, n)
		}
		r.Barrier(e.W.CommWorld())
		start := r.Now()
		var comm sim.Duration
		for s := 0; s < cfg.Steps; s++ {
			// Backprop compute for the whole model.
			for _, l := range cfg.Layers {
				r.Compute(l.Elems * cfg.ComputePerElem)
			}
			// Gradient averaging, bucket by bucket.
			for _, g := range grads {
				t0 := r.Now()
				if err := e.Allreduce(r, cfg.Spec, mpi.Sum, g); err != nil {
					return err
				}
				comm += r.Now().Sub(t0)
			}
		}
		if r.Rank() == 0 {
			res = Result{
				StepTime:   r.Now().Sub(start) / sim.Duration(cfg.Steps),
				CommTime:   comm / sim.Duration(cfg.Steps),
				Allreduces: len(buckets),
				Steps:      cfg.Steps,
			}
		}
		return nil
	})
	return res, err
}
