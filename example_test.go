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
