package bench

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

func TestAllreduceLatencyBasics(t *testing.T) {
	sizes := []int{4, 4096}
	lat, err := AllreduceLatency(mpi.Config{}, topology.ClusterB(), 2, 2, core.DPML(1), sizes, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 2 || lat[0] <= 0 || lat[1] <= lat[0] {
		t.Fatalf("latencies %v: want positive and increasing with size", lat)
	}
	if _, err := AllreduceLatency(mpi.Config{}, topology.ClusterB(), 2, 2, core.DPML(1), sizes, 0, 0); err == nil {
		t.Fatal("iters=0 accepted")
	}
	_, err = AllreduceLatency(mpi.Config{}, topology.ClusterB(), 2, 2, core.DPML(1), sizes, 1, -3)
	if err == nil || err.Error() != "bench: warmup = -3" {
		t.Fatalf("warmup=-3: err = %v", err)
	}
}

// TestAllreduceLatencyValidatesFirst: a spec the job cannot run comes
// back as the one Validate error before the job starts, not as one
// error per rank once events run.
func TestAllreduceLatencyValidatesFirst(t *testing.T) {
	_, err := AllreduceLatency(mpi.Config{}, topology.ClusterB(), 2, 2, core.DPML(3), []int{4, 4096}, 2, 1)
	if err == nil || err.Error() != "core: 3 leaders with ppn=2" {
		t.Fatalf("err = %v, want the single Validate error", err)
	}
}

func TestLatencyDeterministic(t *testing.T) {
	run := func() []float64 {
		s, err := LatencySeries(mpi.Config{}, "x", topology.ClusterC(), 2, 4, core.Spec{Design: core.DesignProposed},
			[]int{64, 64 << 10}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return []float64{s.Points[0].Y, s.Points[1].Y}
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("nondeterministic latency: %v vs %v", a, b)
	}
}

func TestMultiPairThroughputScalesWithPairsSmall(t *testing.T) {
	// Zone A property on Omni-Path: small-message aggregate throughput
	// grows nearly linearly with pairs.
	sizes := []int{64}
	one, err := MultiPairThroughput(mpi.Config{}, topology.ClusterC(), MBWConfig{Pairs: 1, Window: 16, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	four, err := MultiPairThroughput(mpi.Config{}, topology.ClusterC(), MBWConfig{Pairs: 4, Window: 16, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rel := four[0] / one[0]
	if rel < 3 {
		t.Fatalf("4-pair relative throughput %.2f at 64B, want ~4", rel)
	}
}

func TestMultiPairThroughputFlatOnOmniPathLarge(t *testing.T) {
	sizes := []int{1 << 20}
	one, err := MultiPairThroughput(mpi.Config{}, topology.ClusterC(), MBWConfig{Pairs: 1, Window: 8, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := MultiPairThroughput(mpi.Config{}, topology.ClusterC(), MBWConfig{Pairs: 8, Window: 8, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rel := eight[0] / one[0]
	if rel > 2 {
		t.Fatalf("8-pair relative throughput %.2f at 1MB on Omni-Path, want ~1 (Zone C)", rel)
	}
}

func TestMultiPairThroughputScalesOnIBLarge(t *testing.T) {
	sizes := []int{1 << 20}
	one, err := MultiPairThroughput(mpi.Config{}, topology.ClusterB(), MBWConfig{Pairs: 1, Window: 8, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := MultiPairThroughput(mpi.Config{}, topology.ClusterB(), MBWConfig{Pairs: 8, Window: 8, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rel := eight[0] / one[0]
	if rel < 5 {
		t.Fatalf("8-pair relative throughput %.2f at 1MB on IB, want near 8 (Fig 1b)", rel)
	}
}

func TestIntraNodeThroughputScales(t *testing.T) {
	sizes := []int{64 << 10}
	one, err := MultiPairThroughput(mpi.Config{}, topology.ClusterC(), MBWConfig{Pairs: 1, Intra: true, Window: 8, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := MultiPairThroughput(mpi.Config{}, topology.ClusterC(), MBWConfig{Pairs: 8, Intra: true, Window: 8, Iters: 2}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rel := eight[0] / one[0]
	if rel < 5 {
		t.Fatalf("8-pair intra-node relative throughput %.2f, want near 8 (Fig 1a)", rel)
	}
}

func TestMBWConfigValidation(t *testing.T) {
	for _, cfg := range []MBWConfig{{Pairs: 0, Window: 1, Iters: 1}, {Pairs: 1, Window: 0, Iters: 1}, {Pairs: 1, Window: 1, Iters: 0}} {
		if _, err := MultiPairThroughput(mpi.Config{}, topology.ClusterB(), cfg, []int{4}); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestTableRenderAndHelpers(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "demo", XLabel: "bytes", YLabel: "us",
		Series: []Series{
			{Label: "slow", Points: []Point{{4, 10}, {1 << 10, 100}}},
			{Label: "fast", Points: []Point{{4, 8}, {1 << 10, 25}}},
		},
	}
	if got := tab.XValues(); len(got) != 2 || got[0] != 4 || got[1] != 1024 {
		t.Fatalf("XValues = %v", got)
	}
	if tab.Find("fast") == nil || tab.Find("nope") != nil {
		t.Fatal("Find broken")
	}
	if r := tab.AddSpeedupNote("fast", "slow"); r != 4 {
		t.Fatalf("peak speedup %v, want 4 (100/25 at 1K)", r)
	}
	out := tab.String()
	for _, want := range []string{"demo", "slow", "fast", "1K", "4.00x", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if y, ok := tab.Series[0].Y(4); !ok || y != 10 {
		t.Fatal("Series.Y broken")
	}
	if _, ok := tab.Series[0].Y(99); ok {
		t.Fatal("Series.Y invented a point")
	}
}

func TestFigureUnknownID(t *testing.T) {
	if _, err := Figure("fig99", Options{Quick: true}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestEveryFigureRunsQuick is the integration test of the whole harness:
// every figure driver must produce a non-empty table at quick scale.
func TestEveryFigureRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short mode")
	}
	for _, id := range FigureIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Figure(id, Options{Quick: true, Iters: 2, Warmup: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range tab.Series {
				if len(s.Points) == 0 {
					t.Fatalf("series %q empty", s.Label)
				}
				for _, p := range s.Points {
					if p.Y < 0 {
						t.Fatalf("series %q has negative value at %d", s.Label, p.X)
					}
				}
			}
			if tab.String() == "" {
				t.Fatal("render empty")
			}
		})
	}
}

// TestFigureDeterministicAcrossJobs is the parallel-engine guarantee: a
// figure rendered serially and with an 8-worker sweep pool must be
// byte-identical, because jobs share no state and results are collected
// in submission order.
func TestFigureDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-jobs determinism check skipped in -short mode")
	}
	// Jobs also sets every world's shard count: 3 splits the quick shape's
	// 8 nodes unevenly (3+3+2).
	var want string
	for _, jobs := range []int{1, 2, 3} {
		tab, err := Figure("fig4", Options{Quick: true, Iters: 2, Warmup: 1, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		got := tab.String()
		if jobs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("rendered tables differ between -j 1 and -j %d:\n--- serial ---\n%s\n--- parallel ---\n%s", jobs, want, got)
		}
	}
}

// TestFigureMatchesCommittedResults regenerates every figure FigureIDs
// lists at the exact full-scale settings results/README.md documents
// and compares it byte-for-byte against the committed table. This is
// the end-to-end determinism guarantee the scheduler relies on: any
// change to event ordering, floating-point summation order, or
// ready-queue FIFO order shows up here as a diff, not as a silently
// different paper artifact. Tier-1 runs the fast tables: fig4 is
// cluster A's 16x28 leader sweep, and the only committed table that
// runs the four extension families (dual-root, generalized group
// allreduce, both arrival-aware designs) across the whole 4B-1MB size
// sweep at full scale (faults and grandprix run them at one or two
// sizes); eager and noise cover the latency harness on copies of a
// cluster (eager threshold) and under per-message jitter; phases covers the
// breakdown read back from rank 0's trace spans; fig9a and fig11b-c
// cover the selector designs: all three baselines, through the latency
// harness and through miniAMR, with proposed picking SHArP on cluster
// A. Every other table, a new figure's included, runs only with
// DPML_FULL_RESULTS set (make resultscheck): together they take tens of
// minutes, fig10's 10,240-rank job (at -iters 1) most of them.
func TestFigureMatchesCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale regeneration skipped in -short mode")
	}
	fast := []string{"fig4", "eager", "noise", "phases", "fig9a", "fig11b", "fig11c"}
	for _, id := range FigureIDs() {
		t.Run(id, func(t *testing.T) {
			if !slices.Contains(fast, id) && os.Getenv("DPML_FULL_RESULTS") == "" {
				t.Skip("set DPML_FULL_RESULTS=1 (make resultscheck) to regenerate every table")
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			iters := 2
			if id == "fig10" {
				iters = 1
			}
			tab, err := Figure(id, Options{Iters: iters, Warmup: 1})
			if err != nil {
				t.Fatal(err)
			}
			// dpml-bench renders each table followed by a blank line.
			got := tab.String() + "\n"
			if got != string(want) {
				t.Fatalf("regenerated %s differs from committed results/%s.txt:\n--- got ---\n%s", id, id, got)
			}
		})
	}
}

func TestLeaderSweepShapeQuick(t *testing.T) {
	// The harness-level check of the paper's core result at quick scale:
	// 8 leaders beat 1 leader at the largest size.
	tab, err := leaderSweep("fig5q", topology.ClusterB(), 8, 8, false, Options{Quick: true, Iters: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	one, eight := tab.Find("1-leader"), tab.Find("8-leader")
	if one == nil || eight == nil {
		t.Fatalf("missing series in %v", tab.Series)
	}
	big := tab.XValues()[len(tab.XValues())-1]
	y1, _ := one.Y(big)
	y8, _ := eight.Y(big)
	if y8 >= y1 {
		t.Fatalf("8-leader (%v us) not faster than 1-leader (%v us) at %d bytes", y8, y1, big)
	}
}

func TestTuneDPML(t *testing.T) {
	res, err := TuneDPML(topology.ClusterB(), 4, 8, []int{1, 4, 8, 16}, []int{64, 256 << 10}, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 3 { // l=16 > ppn is skipped
		t.Fatalf("series = %d, want 3", len(res.Table.Series))
	}
	if res.Best[64] > 4 {
		t.Fatalf("measured best at 64B = %d leaders, want few", res.Best[64])
	}
	if res.Best[256<<10] < 4 {
		t.Fatalf("measured best at 256KB = %d leaders, want many", res.Best[256<<10])
	}
	if res.Shipped[64] != 1 || res.Predicted[256<<10] < 4 {
		t.Fatalf("table/model lookups wrong: %+v %+v", res.Shipped, res.Predicted)
	}
	if len(res.Table.Notes) != 2 {
		t.Fatalf("notes = %v", res.Table.Notes)
	}
}

func TestTuneDPMLValidation(t *testing.T) {
	if _, err := TuneDPML(topology.ClusterB(), 2, 2, nil, []int{4}, 1, 0, 1); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, err := TuneDPML(topology.ClusterB(), 2, 2, []int{1}, nil, 1, 0, 1); err == nil {
		t.Fatal("empty sizes accepted")
	}
}
