package core

import (
	"testing"
	"testing/quick"

	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// TestAllreducePropertyRandomConfigs is the package's property-based
// check: for randomized job shapes, designs, and payload sizes, every
// rank's allreduce result equals the sequential reduction.
func TestAllreducePropertyRandomConfigs(t *testing.T) {
	clusters := []*topology.Cluster{topology.ClusterA(), topology.ClusterB(), topology.ClusterC(), topology.ClusterD()}
	f := func(clSeed, nodeSeed, ppnSeed, designSeed, countSeed uint8) bool {
		cl := clusters[int(clSeed)%len(clusters)]
		nodes := 1 + int(nodeSeed)%5
		ppn := 1 + int(ppnSeed)%6
		count := 1 + int(countSeed)%300
		var spec Spec
		switch designSeed % 5 {
		case 0:
			spec = DPML(1 + int(designSeed/5)%ppn)
		case 1:
			spec = DPMLPipelined(1+int(designSeed/5)%ppn, 1+int(designSeed)%6)
		case 2:
			spec = Flat(mpi.FlatAlgorithms()[int(designSeed/5)%4])
		case 3:
			if !cl.Sharp.Available {
				spec = HostBased()
			} else {
				spec = Spec{Design: DesignSharpNode}
			}
		default:
			if !cl.Sharp.Available {
				spec = DPML(ppn)
			} else {
				spec = Spec{Design: DesignSharpSocket}
			}
		}

		job, err := topology.NewJob(cl, nodes, ppn)
		if err != nil {
			return false
		}
		e := NewEngine(mpi.NewWorld(job, mpi.Config{}))
		p := job.NumProcs()
		want := make([]float64, count)
		in := make([][]float64, p)
		seedVal := int(clSeed)*7 + int(countSeed)
		for k := range in {
			in[k] = make([]float64, count)
			for i := range in[k] {
				in[k][i] = float64((k*31+i*17+seedVal)%201 - 100)
				want[i] += in[k][i]
			}
		}
		ok := true
		err = e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewVector(mpi.Float64, count)
			copy(v.Float64s(), in[r.Rank()])
			if err := e.Allreduce(r, spec, mpi.Sum, v); err != nil {
				return err
			}
			for i := 0; i < count; i++ {
				if v.At(i) != want[i] {
					ok = false
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Logf("config %s on %s %dx%d n=%d: %v", spec, cl.Name, nodes, ppn, count, err)
			return false
		}
		if !ok {
			t.Logf("wrong result: %s on %s %dx%d n=%d", spec, cl.Name, nodes, ppn, count)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
