package bench

import (
	"errors"
	"testing"

	"dpml/internal/core"
	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// TestFaultsFigureDeterministicAcrossJobs: identical (plan, seed) must
// render byte-identical tables at any worker count — fault plans are
// pure data shared by concurrent worlds, so -j must not leak into the
// output.
func TestFaultsFigureDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("faults determinism check skipped in -short mode")
	}
	opt := Options{Quick: true, Iters: 2, Warmup: 1, FaultSeed: 3}
	opt.Jobs = 1
	serial, err := Figure("faults", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 8
	parallel, err := Figure("faults", opt)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.String(), parallel.String(); s != p {
		t.Fatalf("faults figure differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestFaultsFigureSeedPerturbs: a different fault seed draws different
// ranks, windows, and factors, so the rendered table must change; the
// intensity-0 column (healthy fabric) must not.
func TestFaultsFigureSeedPerturbs(t *testing.T) {
	if testing.Short() {
		t.Skip("faults seed check skipped in -short mode")
	}
	run := func(seed uint64) *Table {
		tab, err := Figure("faults", Options{Quick: true, Iters: 2, Warmup: 1, FaultSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b := run(1), run(2)
	for si := range a.Series {
		if a.Series[si].Points[0] != b.Series[si].Points[0] {
			t.Fatalf("seed changed the healthy (intensity 0) point of %q: %v vs %v",
				a.Series[si].Label, a.Series[si].Points[0], b.Series[si].Points[0])
		}
	}
	if a.String() == b.String() {
		t.Fatal("seeds 1 and 2 rendered identical fault tables")
	}
}

// TestFaultMatrixSmoke runs every fault class against one design each on
// a quick topology: the run must complete (graceful degradation, not
// deadlock or panic) and the perturbing classes must cost virtual time.
func TestFaultMatrixSmoke(t *testing.T) {
	cl := topology.ClusterA()
	const nodes, ppn, bytes = 2, 4, 256
	shape := faults.Shape{Ranks: nodes * ppn, Nodes: nodes}
	matrix := []struct {
		class faults.Class
		label string
		spec  core.Spec
	}{
		{faults.ClassStraggler, "flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{faults.ClassLink, "host-based", core.HostBased()},
		{faults.ClassNIC, "dpml-4", core.DPML(4)},
		{faults.ClassSharp, "sharp-node", core.Spec{Design: core.DesignSharpNode}},
	}
	for _, m := range matrix {
		m := m
		t.Run(string(m.class)+"/"+m.label, func(t *testing.T) {
			run := func(cfg mpi.Config) float64 {
				lat, err := AllreduceLatency(cfg, cl, nodes, ppn,
					m.spec, []int{bytes}, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				return lat[0].Micros()
			}
			healthy := run(mpi.Config{})
			spec := &faults.Spec{Classes: []faults.Class{m.class}, Intensity: 1, Seed: 5}
			rec := trace.New(0)
			faulted := run(mpi.Config{Faults: spec.Instantiate(shape), Trace: rec})
			if faulted <= 0 {
				t.Fatalf("%s under %s: non-positive latency %v", m.label, m.class, faulted)
			}
			if m.class == faults.ClassSharp {
				// A full outage must show up as host fallbacks, not as a
				// latency ordering: at this tiny scale the host path can
				// legitimately beat the switch tree's fixed costs.
				for _, ev := range rec.Events() {
					if ev.Kind == trace.KindFallback {
						return
					}
				}
				t.Fatal("sharp outage produced no fallback events")
			}
			if faulted < healthy {
				t.Fatalf("%s under %s: faulted latency %vus below healthy %vus", m.label, m.class, faulted, healthy)
			}
		})
	}
}

// TestLatencyConfigDefaultIsZero: default options must add nothing to
// the harness world config beyond its shard count (healthy fabric, no
// watchdog), the bit-transparency guarantee every committed table relies
// on.
func TestLatencyConfigDefaultIsZero(t *testing.T) {
	cfg := Options{}.latencyConfig(topology.ClusterB(), 2, 2)
	if cfg != (mpi.Config{Shards: sweep.Workers(0)}) {
		t.Fatalf("default latencyConfig = %+v, want only Shards set", cfg)
	}
}

// TestWorldShardsFollowJobs: -j is the whole thread budget, so every
// harness world runs its kernel on one shard per sweep worker.
func TestWorldShardsFollowJobs(t *testing.T) {
	for _, jobs := range []int{0, 1, 3} {
		cfg := Options{Jobs: jobs}.latencyConfig(topology.ClusterB(), 4, 2)
		if want := sweep.Workers(jobs); cfg.Shards != want {
			t.Errorf("Jobs=%d: latencyConfig.Shards = %d, want %d", jobs, cfg.Shards, want)
		}
	}
}

// TestWatchdogReachesEveryLatencyFigure: Options.Watchdog must arm the
// watchdog of every job in every allreduce-latency figure. A 1ns
// deadline expires before any allreduce completes, so each figure must
// fail with the watchdog's verdict; a figure that builds its own world
// config without it would run to completion instead.
func TestWatchdogReachesEveryLatencyFigure(t *testing.T) {
	for _, id := range []string{
		"fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig10",
		"model", "phases", "pipeline", "eager", "noise", "faults", "grandprix",
	} {
		t.Run(id, func(t *testing.T) {
			_, err := Figure(id, Options{Quick: true, Iters: 1, Watchdog: 1})
			var wd *sim.WatchdogError
			if !errors.As(err, &wd) {
				t.Fatalf("err = %v, want a wrapped *sim.WatchdogError", err)
			}
		})
	}
}
