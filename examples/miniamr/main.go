// miniAMR-like mesh refinement: the medium/large-allreduce workload of
// Figure 11b-c. Compares the refinement time of the three library
// configurations on the Omni-Path clusters.
package main

import (
	"fmt"
	"log"

	"dpml"
)

func refineTime(cluster *dpml.Cluster, lib dpml.Spec) (dpml.Duration, error) {
	eng, err := dpml.NewSystem(cluster, 8, 16)
	if err != nil {
		return 0, err
	}
	res, err := dpml.RunMiniAMR(eng, dpml.MiniAMRConfig{
		BlocksPerRank: 32,
		BlockBytes:    4096,
		Steps:         3,
		Spec:          lib,
	})
	if err != nil {
		return 0, err
	}
	return res.RefineTime, nil
}

func main() {
	for _, cluster := range []*dpml.Cluster{dpml.ClusterC(), dpml.ClusterD()} {
		fmt.Printf("miniAMR-like refinement, 8 nodes x 16 ppn on %s:\n", cluster.Name)
		var mv2 dpml.Duration
		for _, lib := range dpml.Libraries() {
			t, err := refineTime(cluster, lib)
			if err != nil {
				log.Fatal(err)
			}
			if lib.Design == dpml.DesignMVAPICH2 {
				mv2 = t
			}
			fmt.Printf("  %-10s %12v", lib, t)
			if lib.Design != dpml.DesignMVAPICH2 && t > 0 {
				fmt.Printf("  (%.0f%% faster than MVAPICH2)", 100*(float64(mv2)/float64(t)-1))
			}
			fmt.Println()
		}
	}
}
