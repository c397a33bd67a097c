package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dpml/internal/core"
	"dpml/internal/explore"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// determinismRow is one host-parallelism setting of the determinism
// harness: kernel shard count, GOMAXPROCS, and sweep -j worker count.
type determinismRow struct{ shards, gomaxprocs, workers int }

// checkDeterminism is the dynamic counterpart of the walltime and
// globalrand analyzers: every explorable design must digest identically
// under each row as under the serial reference row {1, 1, 1}. Shards
// partition the event heap itself (intra-run parallelism), -j replicates
// whole worlds (inter-run parallelism) — the two must compose without
// either leaking host scheduling into virtual time. Jitter and the
// rendezvous path are both enabled so the per-rank noise streams and the
// cross-shard RTS/CTS/payload handoff are exercised, not just eager
// traffic.
//
// The shape is cluster A at 8 nodes x 8 ppn: both sockets of every node
// (4+4), the SHArP fabric, and more nodes than the largest shard count.
// A 16x28 run would add only non-power-of-two communicator sizes (448
// world ranks, 112 genall groups), whose extra fold steps are ordinary
// sends and receives on the same kernel, coordinator and fabric paths
// this shape already drives; their results on ragged shapes are pinned by
// internal/core's 15-rank conformance shapes. So nothing reaches a
// host-parallel mechanism that only the larger shape would catch.
func checkDeterminism(t *testing.T, rows []determinismRow) {
	t.Helper()
	designs := explore.Designs()
	specs := make([]core.Spec, len(designs))
	for i, name := range designs {
		spec, err := core.ParseDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	sizes := []int{8, 4 << 10, 1 << 20} // 1 MB forces rendezvous transfers

	digestRun := func(row determinismRow) []string {
		old := runtime.GOMAXPROCS(row.gomaxprocs)
		defer runtime.GOMAXPROCS(old)
		cfg := mpi.Config{
			Shards:     row.shards,
			Jitter:     200, // ns of per-message noise, exercising the rank streams
			JitterSeed: 42,
		}
		jobs := make([]sweep.Job[[]sim.Duration], len(specs))
		for i := range specs {
			spec := specs[i]
			jobs[i] = func() ([]sim.Duration, error) {
				return AllreduceLatency(cfg, topology.ClusterA(), 8, 8, spec, sizes, 2, 1)
			}
		}
		results, err := sweep.Run(row.workers, jobs)
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

	base := digestRun(determinismRow{1, 1, 1}) // serial kernel, serial host
	for _, row := range rows {
		got := digestRun(row)
		for i, name := range designs {
			if got[i] != base[i] {
				t.Errorf("%s: digest at shards=%d GOMAXPROCS=%d -j%d differs from serial reference: %s vs %s",
					name, row.shards, row.gomaxprocs, row.workers, got[i], base[i])
			}
		}
	}
}

// TestCrossDesignDeterminism varies host parallelism only: GOMAXPROCS and
// -j on the serial kernel.
func TestCrossDesignDeterminism(t *testing.T) {
	checkDeterminism(t, []determinismRow{
		{1, 2, 3},
		{1, 4, 8},
	})
}

// TestShardDeterminismMatrix varies the kernel shard count together with
// GOMAXPROCS and -j.
func TestShardDeterminismMatrix(t *testing.T) {
	checkDeterminism(t, []determinismRow{
		{2, 1, 2},
		{2, 4, 1},
		{4, 2, 2},
		{1, 2, 1},
		{8, 4, 3}, // more shards than nodes/2: clamping path
	})
}

// TestExaEventCountInvariance pins the acceptance property of the
// 100k+-rank regime: the simulated event count is identical for every
// shard count. By default it runs the cluster E
// workload at a reduced node count (still spanning multiple leaf
// subtrees and the oversubscribed core); DPML_FULL_RESULTS=1 runs the
// full 4096x28 = 114,688-rank shape.
func TestExaEventCountInvariance(t *testing.T) {
	cl := topology.ClusterE()
	nodes := 64 // 2 leaf subtrees of 32
	if os.Getenv("DPML_FULL_RESULTS") == "1" {
		nodes = cl.Nodes
	}
	run := func(shards int) uint64 {
		job, err := topology.NewJob(cl, nodes, 28)
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(job, mpi.Config{Shards: shards})
		e := core.NewEngine(w)
		err = w.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, (64<<10)/4)
			return e.Allreduce(r, core.DPML(14), mpi.Sum, v)
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return w.SimStats().Events
	}
	want := run(1)
	if want == 0 {
		t.Fatal("serial run produced no events")
	}
	for _, shards := range []int{2, 4, 8} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d: %d events, want %d", shards, got, want)
		}
	}
}
