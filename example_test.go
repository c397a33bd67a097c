package dpml_test

import (
	"fmt"
	"log"

	"dpml"
)

// Example runs one verified DPML allreduce on a simulated cluster.
func Example() {
	eng, err := dpml.NewSystem(dpml.ClusterB(), 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	err = eng.W.Run(func(r *dpml.Rank) error {
		v := dpml.NewVector(dpml.Float64, 4)
		v.Fill(float64(r.Rank() + 1))
		if err := eng.Allreduce(r, dpml.DPML(4), dpml.Sum, v); err != nil {
			return err
		}
		if r.Rank() == 0 {
			fmt.Printf("sum over 8 ranks: %v\n", v.At(0))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: sum over 8 ranks: 36
}

// ExampleTraceRecorder breaks one DPML allreduce into the paper's four
// phases by reading rank 0's phase spans back from a trace.
func ExampleTraceRecorder() {
	job, err := dpml.NewJob(dpml.ClusterB(), 4, 8)
	if err != nil {
		log.Fatal(err)
	}
	rec := dpml.NewTraceRecorder(0)
	eng := dpml.NewEngine(dpml.NewWorld(job, dpml.WorldConfig{Trace: rec}))
	err = eng.W.Run(func(r *dpml.Rank) error {
		return eng.Allreduce(r, dpml.DPML(8), dpml.Sum, dpml.NewPhantom(dpml.Float32, 1<<17))
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range rec.Events() {
		if ev.Rank == 0 && ev.Kind == dpml.TracePhase {
			fmt.Printf("%s took time: %v\n", ev.Label, ev.Duration() > 0)
		}
	}
	// Output:
	// copy-in took time: true
	// intra-reduce took time: true
	// inter-leader took time: true
	// bcast-out took time: true
}

// ExampleCostParams evaluates the paper's Eq. 7 for a job shape.
func ExampleCostParams() {
	p := dpml.CostModelFor(dpml.ClusterB()).With(448, 16, 16, 512<<10)
	fmt.Printf("16 leaders beat flat RD: %v\n", p.DPML() < p.RecursiveDoubling())
	// Output: 16 leaders beat flat RD: true
}
