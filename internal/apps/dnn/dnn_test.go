package dnn

import (
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

func engineOn(t *testing.T, nodes, ppn int) *core.Engine {
	t.Helper()
	job, err := topology.NewJob(topology.ClusterC(), nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(mpi.NewWorld(job, mpi.Config{}))
}

func TestBucketsGrouping(t *testing.T) {
	cfg := Config{
		Layers: []Layer{{"a", 100}, {"b", 100}, {"c", 1000}, {"d", 50}},
	}
	// No bucketing: one payload per layer.
	if got := cfg.buckets(); len(got) != 4 {
		t.Fatalf("unbucketed: %v", got)
	}
	// 800-byte buckets (200 float32): a+b merge, c alone, d trails.
	cfg.BucketBytes = 800
	got := cfg.buckets()
	want := []int{200, 1000, 50}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	// Total elements conserved.
	sum := 0
	for _, b := range got {
		sum += b
	}
	if sum != 1250 {
		t.Fatalf("bucket elements %d, want 1250", sum)
	}
}

func TestRunValidation(t *testing.T) {
	e := engineOn(t, 1, 1)
	bad := []Config{
		{Steps: 1},
		{Layers: []Layer{{"x", 0}}, Steps: 1},
		{Layers: []Layer{{"x", 1}}, Steps: 0},
		{Layers: []Layer{{"x", 1}}, Steps: 1, BucketBytes: -1},
	}
	for i, cfg := range bad {
		cfg.Spec = core.Spec{Design: core.DesignProposed}
		if _, err := Run(e, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTrainingStepRuns(t *testing.T) {
	e := engineOn(t, 2, 4)
	res, err := Run(e, Config{
		Layers: ResNet50ish(),
		Steps:  2,
		Spec:   core.Spec{Design: core.DesignProposed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepTime <= 0 || res.CommTime <= 0 || res.CommTime >= res.StepTime {
		t.Fatalf("timing inconsistent: %+v", res)
	}
	if res.Allreduces != len(ResNet50ish()) {
		t.Fatalf("allreduces = %d, want one per layer", res.Allreduces)
	}
}

func TestBucketingReducesCommTime(t *testing.T) {
	// A model dominated by tiny tensors: naive gradient averaging pays
	// per-message latency 64 times; bucketing merges them into a few
	// bandwidth-zone messages.
	var layers []Layer
	for i := 0; i < 64; i++ {
		layers = append(layers, Layer{Name: "bn", Elems: 512}) // 2 KB each
	}
	run := func(bucketBytes int) Result {
		e := engineOn(t, 4, 8)
		res, err := Run(e, Config{
			Layers:      layers,
			Steps:       2,
			BucketBytes: bucketBytes,
			Spec:        core.Spec{Design: core.DesignProposed},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	naive := run(0)
	bucketed := run(64 << 10)
	if bucketed.Allreduces >= naive.Allreduces/4 {
		t.Fatalf("bucketing did not merge payloads: %d vs %d",
			bucketed.Allreduces, naive.Allreduces)
	}
	if float64(bucketed.CommTime) > 0.7*float64(naive.CommTime) {
		t.Fatalf("bucketed comm (%v) not clearly faster than naive (%v)",
			bucketed.CommTime, naive.CommTime)
	}
}

func TestProposedBeatsMVAPICH2OnTraining(t *testing.T) {
	run := func(lib core.Spec) Result {
		e := engineOn(t, 4, 8)
		res, err := Run(e, Config{
			Layers:      ResNet50ish(),
			Steps:       2,
			BucketBytes: 1 << 20,
			Spec:        lib,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mv2 := run(core.Spec{Design: core.DesignMVAPICH2})
	prop := run(core.Spec{Design: core.DesignProposed})
	if prop.CommTime >= mv2.CommTime {
		t.Fatalf("proposed comm (%v) not faster than MVAPICH2 (%v)",
			prop.CommTime, mv2.CommTime)
	}
}
