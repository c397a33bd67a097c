package miniamr

import (
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

func engineOn(t *testing.T, cl *topology.Cluster, nodes, ppn int) *core.Engine {
	t.Helper()
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(mpi.NewWorld(job, mpi.Config{}))
}

func TestRefinementHistogramCorrect(t *testing.T) {
	// Real mode: the deterministic criterion flags every third global
	// block id (shifted per step); verify the aggregated count.
	e := engineOn(t, topology.ClusterC(), 2, 3)
	p := e.W.Job.NumProcs()
	cfg := Config{BlocksPerRank: 4, BlockBytes: 1024, Steps: 3, Real: true, Spec: core.Spec{Design: core.DesignMVAPICH2}}
	res, err := Run(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for step := 0; step < cfg.Steps; step++ {
		for id := 0; id < cfg.BlocksPerRank*p; id++ {
			if (id+step)%3 == 0 {
				want++
			}
		}
	}
	if res.RefinedBlocks != want {
		t.Fatalf("refined %d blocks, want %d", res.RefinedBlocks, want)
	}
}

func TestAllLibrariesRun(t *testing.T) {
	for _, lib := range core.Libraries() {
		e := engineOn(t, topology.ClusterC(), 2, 4)
		res, err := Run(e, Config{BlocksPerRank: 2, BlockBytes: 512, Steps: 2, Spec: lib})
		if err != nil {
			t.Fatalf("%s: %v", lib, err)
		}
		if res.RefineTime <= 0 {
			t.Fatalf("%s: no time elapsed", lib)
		}
	}
}

func TestProposedBeatsMVAPICH2AtScale(t *testing.T) {
	// Figure 11b-c's claim: the proposed design reduces the refinement
	// time relative to MVAPICH2 (medium/large allreduces benefit from
	// DPML).
	run := func(lib core.Spec) sim.Duration {
		e := engineOn(t, topology.ClusterC(), 4, 16)
		res, err := Run(e, Config{BlocksPerRank: 64, BlockBytes: 4096, Steps: 2, Spec: lib})
		if err != nil {
			t.Fatal(err)
		}
		return res.RefineTime
	}
	mv2 := run(core.Spec{Design: core.DesignMVAPICH2})
	prop := run(core.Spec{Design: core.DesignProposed})
	if prop >= mv2 {
		t.Fatalf("proposed (%v) not faster than MVAPICH2 (%v)", prop, mv2)
	}
}

func TestConfigValidation(t *testing.T) {
	e := engineOn(t, topology.ClusterC(), 1, 1)
	bad := []Config{
		{BlocksPerRank: 0, BlockBytes: 1, Steps: 1},
		{BlocksPerRank: 1, BlockBytes: 0, Steps: 1},
		{BlocksPerRank: 1, BlockBytes: 1, Steps: 0},
	}
	for i, cfg := range bad {
		cfg.Spec = core.Spec{Design: core.DesignMVAPICH2}
		if _, err := Run(e, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPhantomAndRealSameTiming(t *testing.T) {
	timing := func(real bool) sim.Duration {
		e := engineOn(t, topology.ClusterC(), 2, 2)
		res, err := Run(e, Config{BlocksPerRank: 8, BlockBytes: 256, Steps: 2, Real: real, Spec: core.Spec{Design: core.DesignIntelMPI}})
		if err != nil {
			t.Fatal(err)
		}
		return res.RefineTime
	}
	if r, p := timing(true), timing(false); r != p {
		t.Fatalf("real %v != phantom %v", r, p)
	}
}
