package mpi

import (
	"testing"

	"dpml/internal/topology"
)

func TestReduceCollCorrect(t *testing.T) {
	for _, tc := range []struct{ nodes, ppn, root, count int }{
		{2, 1, 0, 10},
		{3, 2, 0, 100},
		{3, 2, 5, 100}, // non-zero root
		{5, 1, 3, 33},  // non-power-of-two
		{1, 1, 0, 5},   // singleton
		{4, 2, 7, 1},
	} {
		w := smallWorld(t, topology.ClusterB(), tc.nodes, tc.ppn, Config{})
		p := w.Job.NumProcs()
		err := w.Run(func(r *Rank) error {
			v := NewVector(Int64, tc.count)
			for i := 0; i < tc.count; i++ {
				v.Set(i, float64((r.Rank()+1)*(i+1)))
			}
			r.ReduceColl(w.CommWorld(), tc.root, Sum, v)
			if r.Rank() == tc.root {
				sumRanks := p * (p + 1) / 2
				for i := 0; i < tc.count; i++ {
					if v.At(i) != float64(sumRanks*(i+1)) {
						t.Errorf("%+v: elem %d = %v, want %d", tc, i, v.At(i), sumRanks*(i+1))
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestReduceCollBadRootPanics(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	err := w.Run(func(r *Rank) error {
		defer func() {
			if recover() == nil {
				t.Error("bad root did not panic")
			}
		}()
		r.ReduceColl(w.CommWorld(), 5, Sum, NewVector(Int64, 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
