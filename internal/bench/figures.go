package bench

import (
	"fmt"

	"dpml/internal/apps/hpcg"
	"dpml/internal/apps/miniamr"
	"dpml/internal/core"
	"dpml/internal/costmodel"
	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// Options scales a figure run. Quick shrinks job sizes and sweeps so the
// whole suite runs in seconds (used by tests and `go test -bench`); the
// full setting reproduces the paper's published job shapes.
type Options struct {
	Quick  bool
	Iters  int // timed iterations per point (default 3 quick / 5 full)
	Warmup int // untimed iterations per point (default 1)

	// Jobs is the host thread budget: how many independent simulated jobs
	// (series, sweep points, grid cells) run at once, and how many kernel
	// shards each world runs on. 0 uses every core (GOMAXPROCS), 1 runs
	// serially. Neither count changes a result, and results are collected
	// in submission order, so output is byte-identical for every value.
	Jobs int

	// FaultSpec, when non-nil, injects a deterministic fault plan
	// (instantiated per job shape) into every allreduce-latency figure
	// with a fixed fabric (fig4-fig10, model, phases, pipeline, eager
	// and noise); the "faults" figure sweeps its intensities over the
	// spec's classes in place of the default full set, and "grandprix"
	// keeps its own fault columns. Nil leaves every run on the healthy
	// fabric, bit-identical to a build without the fault layer.
	FaultSpec *faults.Spec
	// FaultSeed is the base seed the "faults" figure derives its plans
	// from; different seeds draw different ranks, windows, and factors.
	FaultSeed uint64
	// Watchdog, when positive, arms the per-job virtual-time watchdog in
	// every allreduce-latency figure (fig4-fig10, model, phases,
	// pipeline, eager, noise, faults and grandprix): a simulated job that
	// has not completed by this virtual deadline aborts with a
	// diagnostic error instead of running forever.
	Watchdog sim.Duration
}

// worldConfig is the config every harness world starts from: one kernel
// shard per sweep worker (clamped to the node count), so a job that runs
// alone takes every core: a figure's only job, or the longest job of a
// sweep (the pool starts it first) when it outlasts all the others.
func worldConfig(jobs int) mpi.Config {
	return mpi.Config{Shards: sweep.Workers(jobs)}
}

// latencyConfig builds the per-job world config for a latency run on the
// given shape: worldConfig plus the options' fault spec and watchdog.
// Every allreduce-latency figure starts from it and sets only the field
// it sweeps. Default options add nothing to worldConfig (healthy fabric,
// no watchdog).
func (o Options) latencyConfig(cl *topology.Cluster, nodes, ppn int) mpi.Config {
	cfg := worldConfig(o.Jobs)
	cfg.Watchdog = o.Watchdog
	cfg.Faults = o.FaultSpec.Instantiate(faults.Shape{
		Ranks: nodes * ppn, Nodes: nodes,
	})
	return cfg
}

func (o Options) withDefaults() Options {
	if o.Iters <= 0 {
		if o.Quick {
			o.Iters = 3
		} else {
			o.Iters = 5
		}
	}
	if o.Warmup <= 0 {
		o.Warmup = 1
	}
	return o
}

// figure is one reproducible figure: its id and the driver that
// regenerates it.
type figure struct {
	id  string
	run func(id string, opt Options) (*Table, error)
}

// figures lists every reproducible figure in paper order.
var figures = []figure{
	{"fig1a", func(id string, opt Options) (*Table, error) {
		return figure1(id, "Relative throughput, intra-node (Xeon)", topology.ClusterC(), true, opt)
	}},
	{"fig1b", func(id string, opt Options) (*Table, error) {
		return figure1(id, "Relative throughput, inter-node Xeon+InfiniBand", topology.ClusterB(), false, opt)
	}},
	{"fig1c", func(id string, opt Options) (*Table, error) {
		return figure1(id, "Relative throughput, inter-node Xeon+Omni-Path", topology.ClusterC(), false, opt)
	}},
	{"fig1d", func(id string, opt Options) (*Table, error) {
		return figure1(id, "Relative throughput, inter-node KNL+Omni-Path", topology.ClusterD(), false, opt)
	}},
	// fig4 doubles as the extension showcase: alongside the paper's
	// leader sweep it carries one series per related-work family so the
	// cluster-A panel ranks them against DPML at every size.
	{"fig4", func(id string, opt Options) (*Table, error) {
		return leaderSweep(id, topology.ClusterA(), 16, 28, true, opt)
	}},
	{"fig5", func(id string, opt Options) (*Table, error) {
		return leaderSweep(id, topology.ClusterB(), 64, 28, false, opt)
	}},
	{"fig6", func(id string, opt Options) (*Table, error) {
		return leaderSweep(id, topology.ClusterC(), 64, 28, false, opt)
	}},
	{"fig7", func(id string, opt Options) (*Table, error) {
		return leaderSweep(id, topology.ClusterD(), 32, 32, false, opt)
	}},
	{"fig8a", func(id string, opt Options) (*Table, error) { return sharpComparison(id, 1, opt) }},
	{"fig8b", func(id string, opt Options) (*Table, error) { return sharpComparison(id, 4, opt) }},
	{"fig8c", func(id string, opt Options) (*Table, error) { return sharpComparison(id, 28, opt) }},
	{"fig9a", func(id string, opt Options) (*Table, error) {
		return libraryComparison(id, topology.ClusterA(), 16, 28, false, opt)
	}},
	{"fig9b", func(id string, opt Options) (*Table, error) {
		return libraryComparison(id, topology.ClusterB(), 64, 28, false, opt)
	}},
	{"fig9c", func(id string, opt Options) (*Table, error) {
		return libraryComparison(id, topology.ClusterC(), 64, 28, true, opt)
	}},
	{"fig9d", func(id string, opt Options) (*Table, error) {
		return libraryComparison(id, topology.ClusterD(), 32, 32, true, opt)
	}},
	{"fig10", func(id string, opt Options) (*Table, error) {
		return libraryComparison(id, topology.ClusterD(), 160, 64, true, opt)
	}},
	{"fig11a", hpcgFigure},
	{"fig11b", func(id string, opt Options) (*Table, error) { return miniamrFigure(id, topology.ClusterC(), opt) }},
	{"fig11c", func(id string, opt Options) (*Table, error) { return miniamrFigure(id, topology.ClusterD(), opt) }},
	{"model", modelComparison},
	{"phases", phaseBreakdown},
	{"pipeline", pipelineAblation},
	{"noise", noiseSensitivity},
	{"eager", eagerAblation},
	{"faults", faultSweep},
	{"grandprix", grandPrix},
}

// FigureIDs lists every reproducible figure in paper order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Figure regenerates one of the paper's figures and returns its table.
func Figure(id string, opt Options) (*Table, error) {
	for _, f := range figures {
		if f.id == id {
			return f.run(id, opt.withDefaults())
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q (known: %v)", id, FigureIDs())
}

// figure1 reproduces one panel of Figure 1: relative throughput of
// 2/4/8/16 communicating pairs vs one pair.
func figure1(id, title string, cl *topology.Cluster, intra bool, opt Options) (*Table, error) {
	pairs := []int{2, 4, 8, 16}
	sizes := sweepSizes(opt.Quick)
	window, iters := 64, 2
	if opt.Quick {
		window = 16
	}
	if intra && cl.CoresPerNode() < 32 {
		pairs = []int{2, 4, 8} // 16 intra-node pairs need 32 cores
	}
	t, err := RelativeThroughput(id, title, cl, intra, pairs, sizes, window, iters, opt.Jobs)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper Fig 1: shm and IB scale with pairs at all sizes; Omni-Path scales only in Zone A (small)")
	return t, nil
}

// leaderCandidates is the paper's leader-count sweep, clamped to ppn.
func leaderCandidates(ppn int) []int {
	var out []int
	for _, l := range []int{1, 2, 4, 8, 16} {
		if l <= ppn {
			out = append(out, l)
		}
	}
	return out
}

// gridCell indexes one point of a two-dimensional sweep (series row,
// sweep-point column) so grid figures can fan every cell as its own job.
type gridCell struct{ row, col int }

// gridCells enumerates rows x cols cells in row-major order.
func gridCells(rows, cols int) []gridCell {
	out := make([]gridCell, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, gridCell{r, c})
		}
	}
	return out
}

// quickShrink reduces a job to test scale.
func quickShrink(quick bool, nodes, ppn int) (int, int) {
	if !quick {
		return nodes, ppn
	}
	if nodes > 8 {
		nodes = 8
	}
	if ppn > 8 {
		ppn = 8
	}
	return nodes, ppn
}

// designCase pairs a series label with the reduction spec it measures.
type designCase struct {
	label string
	spec  core.Spec
}

// extensionCases lists the related-work families raced against DPML in
// the extended figures (fig4, faults, grandprix): the dual-root
// doubly-pipelined tree, the generalized group allreduce, and both
// arrival-pattern-aware designs.
func extensionCases() []designCase {
	return []designCase{
		{"dualroot-s4", core.DualRoot(4)},
		{"genall-g4", core.GenAll(4)},
		{"pap-sorted", core.PAPSorted()},
		{"pap-ring", core.PAPRing()},
	}
}

// leaderSweep reproduces Figures 4-7: allreduce latency per message size
// for 1, 2, 4, 8, 16 leaders per node. With extended set (fig4 only, so
// figs 5-7 stay byte-identical to the paper-only build) it appends one
// series per related-work family after the leader sweep; both run in one
// pool, so the last and slowest series, pap-ring, starts first.
func leaderSweep(id string, cl *topology.Cluster, nodes, ppn int, extended bool, opt Options) (*Table, error) {
	nodes, ppn = quickShrink(opt.Quick, nodes, ppn)
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Impact of number of leaders, %s, %d nodes x %d ppn (%d procs)", cl.Name, nodes, ppn, nodes*ppn),
		XLabel: "bytes",
		YLabel: "latency (us)",
	}
	sizes := sweepSizes(opt.Quick)
	var cases []designCase
	for _, l := range leaderCandidates(ppn) {
		cases = append(cases, designCase{fmt.Sprintf("%d-leader", l), core.DPML(l)})
	}
	leaderCount := len(cases)
	if extended {
		cases = append(cases, extensionCases()...)
	}
	series, err := sweep.Map(opt.Jobs, cases, func(_ int, cse designCase) (Series, error) {
		return LatencySeries(opt.latencyConfig(cl, nodes, ppn), cse.label, cl, nodes, ppn,
			cse.spec, sizes, opt.Iters, opt.Warmup)
	})
	if err != nil {
		return nil, err
	}
	t.Series = series
	if leaderCount > 1 {
		last := t.Series[leaderCount-1].Label
		t.AddSpeedupNote(last, "1-leader")
		t.Notes = append(t.Notes, "paper: 4.9x (cluster B) / 4.3x (cluster C) at 512KB with 16 vs 1 leaders")
	}
	if extended {
		t.Notes = append(t.Notes, "extension series: dual-root pipelined tree, generalized group allreduce, and arrival-aware designs on the same shape (healthy fabric: pap-ring degenerates to the flat ring)")
	}
	return t, nil
}

// sharpDesigns lists the designs the SHArP figures (fig8, fig11a) compare.
func sharpDesigns() []designCase {
	return []designCase{
		{"host-based", core.HostBased()},
		{"node-leader", core.Spec{Design: core.DesignSharpNode}},
		{"socket-leader", core.Spec{Design: core.DesignSharpSocket}},
	}
}

// sharpComparison reproduces one panel of Figure 8: host-based vs SHArP
// node-leader vs socket-leader on 16 nodes of cluster A.
func sharpComparison(id string, ppn int, opt Options) (*Table, error) {
	cl := topology.ClusterA()
	nodes := 16
	if opt.Quick {
		nodes = 8
		if ppn > 8 {
			ppn = 8
		}
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("SHArP designs, %s, %d nodes x %d ppn", cl.Name, nodes, ppn),
		XLabel: "bytes",
		YLabel: "latency (us)",
	}
	sizes := smallSizes(opt.Quick)
	cases := sharpDesigns()
	series, err := sweep.Map(opt.Jobs, cases, func(_ int, cse designCase) (Series, error) {
		return LatencySeries(opt.latencyConfig(cl, nodes, ppn), cse.label, cl, nodes, ppn,
			cse.spec, sizes, opt.Iters, opt.Warmup)
	})
	if err != nil {
		return nil, err
	}
	t.Series = series
	t.AddSpeedupNote("node-leader", "host-based")
	t.AddSpeedupNote("socket-leader", "host-based")
	t.Notes = append(t.Notes, "paper: SHArP up to 2.5x at ppn=1; +80%/+100% (node/socket) at ppn=4; +46%/+73% at ppn=28; host wins by 4KB")
	return t, nil
}

// libraryComparison reproduces Figures 9 and 10: the proposed design's
// best configuration against the MVAPICH2 and Intel MPI baselines.
func libraryComparison(id string, cl *topology.Cluster, nodes, ppn int, withIntel bool, opt Options) (*Table, error) {
	nodes, ppn = quickShrink(opt.Quick, nodes, ppn)
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("MPI_Allreduce vs state-of-the-art, %s, %d nodes x %d ppn (%d procs)", cl.Name, nodes, ppn, nodes*ppn),
		XLabel: "bytes",
		YLabel: "latency (us)",
	}
	libs := []core.Spec{{Design: core.DesignMVAPICH2}}
	if withIntel {
		libs = append(libs, core.Spec{Design: core.DesignIntelMPI})
	}
	libs = append(libs, core.Spec{Design: core.DesignProposed})
	sizes := sweepSizes(opt.Quick)
	series, err := sweep.Map(opt.Jobs, libs, func(_ int, lib core.Spec) (Series, error) {
		return LatencySeries(opt.latencyConfig(cl, nodes, ppn), lib.String(), cl, nodes, ppn,
			lib, sizes, opt.Iters, opt.Warmup)
	})
	if err != nil {
		return nil, err
	}
	t.Series = series
	t.AddSpeedupNote("proposed", "mvapich2")
	if withIntel {
		t.AddSpeedupNote("proposed", "intelmpi")
	}
	t.Notes = append(t.Notes, "paper Fig 9: proposed up to 3.59x (A) / 3.08x (B) vs MVAPICH2; 2.98x/2.3x vs Intel MPI, 1.4x/3.31x vs MVAPICH2 (C/D); Fig 10: +207% vs MVAPICH2, +48% vs Intel MPI at 10,240 procs")
	return t, nil
}

// hpcgFigure reproduces Figure 11a: HPCG DDOT time under the SHArP
// designs at 56/224/448 processes (28 ppn on cluster A).
func hpcgFigure(id string, opt Options) (*Table, error) {
	cl := topology.ClusterA()
	shapes := []struct{ nodes, ppn int }{{2, 28}, {8, 28}, {16, 28}}
	iters := 30
	if opt.Quick {
		shapes = []struct{ nodes, ppn int }{{2, 8}, {4, 8}}
		iters = 10
	}
	t := &Table{
		ID:     id,
		Title:  "HPCG DDOT time with SHArP designs, " + cl.Name,
		XLabel: "processes",
		YLabel: "DDOT time (us)",
	}
	cases := sharpDesigns()
	// One job per (design, job shape) grid cell; cells land back in
	// row-major order, so series assembly below is deterministic.
	cells := gridCells(len(cases), len(shapes))
	pts, err := sweep.Map(opt.Jobs, cells, func(_ int, c gridCell) (Point, error) {
		cse, shape := cases[c.row], shapes[c.col]
		job, err := topology.NewJob(cl, shape.nodes, shape.ppn)
		if err != nil {
			return Point{}, err
		}
		e := core.NewEngine(mpi.NewWorld(job, worldConfig(opt.Jobs)))
		res, err := hpcg.Run(e, hpcg.Config{
			Nx: 16, Ny: 16, Nz: 8, Iterations: iters, Spec: cse.spec,
		})
		if err != nil {
			return Point{}, fmt.Errorf("%s at %d procs: %w", cse.label, job.NumProcs(), err)
		}
		return Point{X: job.NumProcs(), Y: res.DDOTTime.Micros()}, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cse := range cases {
		t.Series = append(t.Series, Series{
			Label:  cse.label,
			Points: pts[ci*len(shapes) : (ci+1)*len(shapes)],
		})
	}
	t.Notes = append(t.Notes, "paper: up to 35% lower DDOT time at 56 procs, ~10% at 224; gain shrinks as local work grows (weak scaling)")
	return t, nil
}

// miniamrFigure reproduces Figure 11b/11c: miniAMR refinement time per
// library.
func miniamrFigure(id string, cl *topology.Cluster, opt Options) (*Table, error) {
	shapes := []struct{ nodes, ppn int }{{8, 16}, {16, 16}}
	steps := 4
	if opt.Quick {
		shapes = []struct{ nodes, ppn int }{{2, 8}, {4, 8}}
		steps = 2
	}
	t := &Table{
		ID:     id,
		Title:  "miniAMR mesh refinement time, " + cl.Name,
		XLabel: "processes",
		YLabel: "refinement time (us)",
	}
	libs := core.Libraries()
	cells := gridCells(len(libs), len(shapes))
	pts, err := sweep.Map(opt.Jobs, cells, func(_ int, c gridCell) (Point, error) {
		lib, shape := libs[c.row], shapes[c.col]
		job, err := topology.NewJob(cl, shape.nodes, shape.ppn)
		if err != nil {
			return Point{}, err
		}
		e := core.NewEngine(mpi.NewWorld(job, worldConfig(opt.Jobs)))
		res, err := miniamr.Run(e, miniamr.Config{
			BlocksPerRank: 32, BlockBytes: 4096, Steps: steps, Spec: lib,
		})
		if err != nil {
			return Point{}, fmt.Errorf("%s at %d procs: %w", lib, job.NumProcs(), err)
		}
		return Point{X: job.NumProcs(), Y: res.RefineTime.Micros()}, nil
	})
	if err != nil {
		return nil, err
	}
	for li, lib := range libs {
		t.Series = append(t.Series, Series{
			Label:  lib.String(),
			Points: pts[li*len(shapes) : (li+1)*len(shapes)],
		})
	}
	t.Notes = append(t.Notes, "paper: proposed up to 40%/20% over MVAPICH2/Intel MPI on C, 60%/20% on D")
	return t, nil
}

// modelComparison contrasts Section 5's analytic predictions (Eq. 7) with
// simulated DPML latency across leader counts, and reports the optimal
// leader count both ways.
func modelComparison(id string, opt Options) (*Table, error) {
	cl := topology.ClusterB()
	nodes, ppn := 16, 28
	if opt.Quick {
		nodes, ppn = 8, 8
	}
	const bytes = 512 << 10
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Cost model (Eq. 7) vs simulation, %s, %d nodes x %d ppn, 512KB", cl.Name, nodes, ppn),
		XLabel: "leaders",
		YLabel: "latency (us)",
	}
	params := costmodel.FromCluster(cl)
	model := Series{Label: "model"}
	simulated := Series{Label: "simulated"}
	leaders := []int{1, 2, 4, 8, 16}
	cand := leaderCandidates(ppn)
	// The analytic points are arithmetic; only the simulations fan out.
	lats, err := sweep.Map(opt.Jobs, cand, func(_ int, l int) (sim.Duration, error) {
		lat, err := AllreduceLatency(opt.latencyConfig(cl, nodes, ppn), cl, nodes, ppn,
			core.DPML(l), []int{bytes}, opt.Iters, opt.Warmup)
		if err != nil {
			return 0, err
		}
		return lat[0], nil
	})
	if err != nil {
		return nil, err
	}
	for i, l := range cand {
		p := params.With(nodes*ppn, nodes, l, bytes)
		model.Points = append(model.Points, Point{X: l, Y: p.DPML() * 1e6})
		simulated.Points = append(simulated.Points, Point{X: l, Y: lats[i].Micros()})
	}
	t.Series = []Series{model, simulated}
	// Optimal leader count, both ways.
	bestModel := params.With(nodes*ppn, nodes, 1, bytes).OptimalLeaders()
	bestSim, bestY := 0, 0.0
	for _, pt := range simulated.Points {
		if bestSim == 0 || pt.Y < bestY {
			bestSim, bestY = pt.X, pt.Y
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("optimal leaders: model=%d simulated=%d (candidates %v)", bestModel, bestSim, leaders))
	return t, nil
}
