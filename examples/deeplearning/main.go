// Deep-learning gradient averaging: the workload the paper's
// introduction motivates for medium/large allreduce ("many applications
// in newer fields such as deep learning extensively use medium and large
// message reductions").
//
// The example runs synchronous data-parallel training steps on a KNL +
// Omni-Path system and shows two effects: (1) the proposed DPML hybrid
// cuts gradient-averaging time against the MVAPICH2-style baseline, and
// (2) bucketing small tensors into larger messages moves them out of the
// latency-bound zone — message-size engineering straight out of the
// paper's Figure 1 analysis.
package main

import (
	"fmt"
	"log"

	"dpml"
)

func run(lib dpml.Spec, bucketBytes int) dpml.DNNResult {
	eng, err := dpml.NewSystem(dpml.ClusterD(), 8, 16)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dpml.RunDNN(eng, dpml.DNNConfig{
		Layers:      dpml.ResNet50ish(),
		Steps:       2,
		BucketBytes: bucketBytes,
		Spec:        lib,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	layers := dpml.ResNet50ish()
	var bytes int
	for _, l := range layers {
		bytes += l.Elems * 4
	}
	fmt.Printf("model: %.1f MB of gradients across %d tensors; 8 nodes x 16 ppn (KNL + Omni-Path)\n\n",
		float64(bytes)/(1<<20), len(layers))

	fmt.Println("library comparison (per-layer allreduce, no bucketing):")
	var mv2 dpml.Duration
	for _, lib := range dpml.Libraries() {
		res := run(lib, 0)
		if lib.Design == dpml.DesignMVAPICH2 {
			mv2 = res.CommTime
		}
		fmt.Printf("  %-10s step %10v  gradient-averaging %10v (%.2fx vs MVAPICH2)\n",
			lib, res.StepTime, res.CommTime, float64(mv2)/float64(res.CommTime))
	}

	fmt.Println("\nbucketing sweep (proposed library):")
	for _, b := range []int{0, 256 << 10, 1 << 20, 4 << 20} {
		res := run(dpml.Spec{Design: dpml.DesignProposed}, b)
		label := "per-layer"
		if b > 0 {
			label = fmt.Sprintf("%d KB buckets", b>>10)
		}
		fmt.Printf("  %-16s %3d allreduces/step, gradient-averaging %10v\n",
			label, res.Allreduces, res.CommTime)
	}
}
