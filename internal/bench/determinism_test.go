package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// TestCrossDesignDeterminism is the dynamic counterpart of the walltime
// and globalrand analyzers: a mid-scale scenario (cluster A, 16 nodes x
// 28 ppn) must produce byte-identical latencies for every design no
// matter how much host parallelism the run gets — different GOMAXPROCS,
// different sweep -j worker counts, repeated runs.
func TestCrossDesignDeterminism(t *testing.T) {
	designs := []struct {
		name string
		spec core.Spec
	}{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"host-based", core.HostBased()},
		{"dpml-4", core.DPML(4)},
		{"dpml-pipelined", core.DPMLPipelined(4, 4)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
		{"sharp-socket", core.Spec{Design: core.DesignSharpSocket}},
		{"dualroot-s4", core.DualRoot(4)},
		{"genall-g4", core.GenAll(4)},
		{"pap-sorted", core.PAPSorted()},
		{"pap-ring", core.PAPRing()},
	}
	sizes := []int{8, 4 << 10, 256 << 10}

	digestRun := func(gomaxprocs, workers int) []string {
		old := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(old)
		jobs := make([]sweep.Job[[]sim.Duration], len(designs))
		for i := range designs {
			spec := designs[i].spec
			jobs[i] = func() ([]sim.Duration, error) {
				return AllreduceLatency(topology.ClusterA(), 16, 28, FixedSpec(spec), sizes, 2, 1)
			}
		}
		results, err := sweep.Run(workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]string, len(results))
		for i, lats := range results {
			h := sha256.New()
			for _, d := range lats {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(d))
				h.Write(b[:])
			}
			digests[i] = fmt.Sprintf("%x", h.Sum(nil))
		}
		return digests
	}

	configs := []struct{ gomaxprocs, workers int }{
		{1, 1},
		{2, 3},
		{4, 8},
	}
	base := digestRun(configs[0].gomaxprocs, configs[0].workers)
	for _, cfg := range configs[1:] {
		got := digestRun(cfg.gomaxprocs, cfg.workers)
		for i, d := range designs {
			if got[i] != base[i] {
				t.Errorf("%s: digest under GOMAXPROCS=%d -j%d differs from GOMAXPROCS=%d -j%d: %s vs %s",
					d.name, cfg.gomaxprocs, cfg.workers, configs[0].gomaxprocs, configs[0].workers, got[i], base[i])
			}
		}
	}
}

// TestShardDeterminismMatrix is the sharded-kernel analogue: the same
// scenario must digest identically for every combination of kernel shard
// count, network shard count, GOMAXPROCS, and sweep -j worker count.
// Shards partition the event heap itself (intra-run parallelism),
// netshards parallelize the network kernel's water-fill over independent
// link components, -j replicates whole worlds (inter-run parallelism) —
// the three must compose without any of them leaking host scheduling
// into virtual time. Jitter and the rendezvous path are both enabled so
// the per-rank noise streams and the cross-shard RTS/CTS/payload handoff
// are exercised, not just eager traffic.
func TestShardDeterminismMatrix(t *testing.T) {
	designs := []struct {
		name string
		spec core.Spec
	}{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"dpml-4", core.DPML(4)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
		{"dualroot-s4", core.DualRoot(4)},
		{"genall-g4", core.GenAll(4)},
		{"pap-sorted", core.PAPSorted()},
		{"pap-ring", core.PAPRing()},
	}
	sizes := []int{8, 4 << 10, 1 << 20} // 1 MB forces rendezvous transfers

	digestRun := func(shards, netShards, gomaxprocs, workers int) []string {
		old := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(old)
		cfg := mpi.Config{
			Shards:     shards,
			NetShards:  netShards,
			Jitter:     200, // ns of per-message noise, exercising the rank streams
			JitterSeed: 42,
		}
		jobs := make([]sweep.Job[[]sim.Duration], len(designs))
		for i := range designs {
			spec := designs[i].spec
			jobs[i] = func() ([]sim.Duration, error) {
				// Cluster A: the SHArP-capable fabric, so the sharp-node
				// design (whose completion wakeups cross shards) runs too.
				return AllreduceLatencyCfg(cfg, topology.ClusterA(), 8, 8, FixedSpec(spec), sizes, 2, 1)
			}
		}
		results, err := sweep.Run(workers, jobs)
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]string, len(results))
		for i, lats := range results {
			h := sha256.New()
			for _, d := range lats {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(d))
				h.Write(b[:])
			}
			digests[i] = fmt.Sprintf("%x", h.Sum(nil))
		}
		return digests
	}

	configs := []struct{ shards, netShards, gomaxprocs, workers int }{
		{1, 1, 1, 1}, // serial kernel, serial fill, serial host: the reference
		{2, 1, 1, 2},
		{2, 4, 4, 1}, // parallel fill under a sharded kernel
		{4, 2, 2, 2},
		{1, 8, 2, 1}, // serial kernel, heavily parallel fill
		{8, 3, 4, 3}, // more shards than nodes/2: clamping path
	}
	base := digestRun(configs[0].shards, configs[0].netShards, configs[0].gomaxprocs, configs[0].workers)
	for _, cfg := range configs[1:] {
		got := digestRun(cfg.shards, cfg.netShards, cfg.gomaxprocs, cfg.workers)
		for i, d := range designs {
			if got[i] != base[i] {
				t.Errorf("%s: digest at shards=%d netshards=%d GOMAXPROCS=%d -j%d differs from serial reference: %s vs %s",
					d.name, cfg.shards, cfg.netShards, cfg.gomaxprocs, cfg.workers, got[i], base[i])
			}
		}
	}
}

// TestExaEventCountInvariance pins the acceptance property of the
// 100k+-rank regime: the simulated event count is identical for every
// (shards, netshards) combination. By default it runs the cluster E
// workload at a reduced node count (still spanning multiple leaf
// subtrees and the oversubscribed core); DPML_FULL_RESULTS=1 runs the
// full 4096x28 = 114,688-rank shape.
func TestExaEventCountInvariance(t *testing.T) {
	cl := topology.ClusterE()
	nodes := 64 // 2 leaf subtrees of 32
	if os.Getenv("DPML_FULL_RESULTS") == "1" {
		nodes = cl.Nodes
	}
	cl = cl.WithNodes(nodes)
	run := func(shards, netShards int) uint64 {
		job, err := topology.NewJob(cl, nodes, 28)
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(job, mpi.Config{Shards: shards, NetShards: netShards})
		e := core.NewEngine(w)
		err = w.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, (64<<10)/4)
			return e.Allreduce(r, core.DPML(14), mpi.Sum, v)
		})
		if err != nil {
			t.Fatalf("shards=%d netshards=%d: %v", shards, netShards, err)
		}
		return w.SimStats().Events
	}
	want := run(1, 1)
	if want == 0 {
		t.Fatal("serial run produced no events")
	}
	for _, cfg := range [][2]int{{2, 1}, {2, 4}, {4, 2}, {8, 3}} {
		if got := run(cfg[0], cfg[1]); got != want {
			t.Errorf("shards=%d netshards=%d: %d events, want %d", cfg[0], cfg[1], got, want)
		}
	}
}
