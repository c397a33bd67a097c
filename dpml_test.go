package dpml

import "testing"

func TestNewSystemAndAllreduce(t *testing.T) {
	eng, err := NewSystem(ClusterB(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.W.Run(func(r *Rank) error {
		v := NewVector(Float64, 100)
		v.Fill(float64(r.Rank() + 1))
		if err := eng.Allreduce(r, DPML(2), Sum, v); err != nil {
			return err
		}
		if v.At(0) != 36 { // sum 1..8
			t.Errorf("rank %d got %v, want 36", r.Rank(), v.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(ClusterA(), 100, 4); err == nil {
		t.Fatal("accepted too many nodes")
	}
	if _, err := NewSystem(ClusterA(), 4, 100); err == nil {
		t.Fatal("accepted too many ppn")
	}
}

func TestPublicHPCG(t *testing.T) {
	eng, err := NewSystem(ClusterA(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunHPCG(eng, HPCGConfig{Nx: 8, Ny: 8, Nz: 4, Iterations: 15, Real: true, Spec: HostBased()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualDrop < 10 {
		t.Fatalf("residual drop %v", res.ResidualDrop)
	}
}

func TestPublicMiniAMR(t *testing.T) {
	eng, err := NewSystem(ClusterC(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMiniAMR(eng, MiniAMRConfig{BlocksPerRank: 4, BlockBytes: 512, Steps: 2, Spec: Spec{Design: DesignProposed}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RefineTime <= 0 {
		t.Fatal("no refinement time recorded")
	}
}
