package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/topology"
)

// goldenCase is one collective whose per-rank virtual end times and
// results are pinned by TestGoldenTimelines.
type goldenCase struct {
	name string
	run  func(e *Engine, r *mpi.Rank, v *mpi.Vector) error
}

var goldenCases = []goldenCase{
	{"allreduce-dpml4", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
		return e.Allreduce(r, DPML(4), mpi.Sum, v)
	}},
	{"allreduce-dpml-pipelined4x4", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
		return e.Allreduce(r, DPMLPipelined(4, 4), mpi.Sum, v)
	}},
	{"allreduce-sharp-node", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
		return e.Allreduce(r, Spec{Design: DesignSharpNode}, mpi.Sum, v)
	}},
	{"allreduce-sharp-socket", func(e *Engine, r *mpi.Rank, v *mpi.Vector) error {
		return e.Allreduce(r, Spec{Design: DesignSharpSocket}, mpi.Sum, v)
	}},
}

// goldenTimelines pins, per case, every rank's virtual end time (ns) and
// an FNV-1a digest over every rank's result bits in rank order. Inputs
// have fractional parts, so a change in fold order changes the digest.
var goldenTimelines = map[string]struct {
	ends   []int64
	digest uint64
}{
	"allreduce-dpml4": {
		ends: []int64{
			17368, 17368, 18075, 19408, 19408, 19408, 19408, 19408,
			17368, 17368, 18075, 19408, 19408, 19408, 19408, 19408,
			17368, 17368, 18075, 19408, 19408, 19408, 19408, 19408,
			17368, 17368, 18075, 19408, 19408, 19408, 19408, 19408,
		},
		digest: 0xb1f771b109abd65,
	},
	"allreduce-dpml-pipelined4x4": {
		ends: []int64{
			18213, 18213, 18920, 20253, 20253, 20253, 20253, 20253,
			18262, 18262, 18967, 20302, 20300, 20300, 20300, 20300,
			18213, 18213, 18920, 20253, 20253, 20253, 20253, 20253,
			18262, 18262, 18967, 20302, 20300, 20300, 20300, 20300,
		},
		digest: 0xb1f771b109abd65,
	},
	"allreduce-sharp-node": {
		ends: []int64{
			82838, 82838, 82838, 82838, 84491, 84491, 84491, 84491,
			82838, 82838, 82838, 82838, 84491, 84491, 84491, 84491,
			82838, 82838, 82838, 82838, 84491, 84491, 84491, 84491,
			82838, 82838, 82838, 82838, 84491, 84491, 84491, 84491,
		},
		digest: 0x13a657026ba38e65,
	},
	"allreduce-sharp-socket": {
		ends: []int64{
			74105, 74105, 74105, 74105, 74105, 74105, 74105, 74105,
			74105, 74105, 74105, 74105, 74105, 74105, 74105, 74105,
			74105, 74105, 74105, 74105, 74105, 74105, 74105, 74105,
			74105, 74105, 74105, 74105, 74105, 74105, 74105, 74105,
		},
		digest: 0xcf669e614b713ba5,
	},
}

// TestGoldenTimelines runs the DPML and SHArP allreduces on cluster A
// (4 nodes x 8 ranks, 1000 real float64 elements, below the SHArP
// payload limit) and compares each rank's end time and result with the
// pinned values. Any refactor of the shared-memory phases must leave
// both unchanged.
func TestGoldenTimelines(t *testing.T) {
	const nodes, ppn, count = 4, 8, 1000
	for _, gc := range goldenCases {
		e := buildEngine(t, topology.ClusterA(), nodes, ppn)
		p := e.W.Job.NumProcs()
		ends := make([]int64, p)
		results := make([][]float64, p)
		err := e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewVector(mpi.Float64, count)
			for i := 0; i < count; i++ {
				v.Set(i, math.Sin(float64(r.Rank()*count+i))/3)
			}
			if err := gc.run(e, r, v); err != nil {
				return err
			}
			ends[r.Rank()] = int64(r.Now())
			results[r.Rank()] = v.Float64s()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, res := range results {
			for _, x := range res {
				u := math.Float64bits(x)
				for k := range b {
					b[k] = byte(u >> (8 * k))
				}
				h.Write(b[:])
			}
		}
		got := fmt.Sprintf("ends: %#v, digest: %#x", ends, h.Sum64())
		want, ok := goldenTimelines[gc.name]
		if !ok {
			t.Errorf("%s: no golden; got\n{%s},", gc.name, got)
			continue
		}
		if exp := fmt.Sprintf("ends: %#v, digest: %#x", want.ends, want.digest); got != exp {
			t.Errorf("%s: timeline changed\n got {%s}\nwant {%s}", gc.name, got, exp)
		}
	}
}
