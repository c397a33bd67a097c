package bench

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/costmodel"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// The drivers in this file go beyond the paper's figures: ablations for
// design choices the paper motivates but does not plot separately.

// phaseBreakdown measures a leader rank's per-phase DPML times and sets
// them against the cost model's Eq. 2-6 terms.
func phaseBreakdown(id string, opt Options) (*Table, error) {
	cl := topology.ClusterB()
	nodes, ppn := 16, 28
	if opt.Quick {
		nodes, ppn = 4, 8
	}
	const bytes = 512 << 10
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("DPML phase breakdown at 512KB, %s, %d nodes x %d ppn (measured on leader 0 vs Eq. 2-6)", cl.Name, nodes, ppn),
		XLabel: "leaders",
		YLabel: "time (us)",
	}
	measured := map[string]*Series{
		"copy":   {Label: "copy"},
		"reduce": {Label: "reduce"},
		"inter":  {Label: "inter"},
		"bcast":  {Label: "bcast"},
	}
	model := map[string]*Series{
		"model-copy":    {Label: "model-copy"},
		"model-compute": {Label: "model-compute"},
		"model-comm":    {Label: "model-comm"},
	}
	params := costmodel.FromCluster(cl)
	cand := leaderCandidates(ppn)
	times, err := sweep.Map(opt.Jobs, cand, func(_ int, l int) (core.PhaseTimes, error) {
		var pt core.PhaseTimes
		job, err := topology.NewJob(cl, nodes, ppn)
		if err != nil {
			return pt, err
		}
		e := core.NewEngine(mpi.NewWorld(job, mpi.Config{}))
		err = e.W.Run(func(r *mpi.Rank) error {
			v := mpi.NewPhantom(mpi.Float32, bytes/4)
			// Warm up once so phase timings exclude first-op skew.
			if _, err := e.AllreduceProfiled(r, core.DPML(l), mpi.Sum, v); err != nil {
				return err
			}
			r.Barrier(e.W.CommWorld())
			res, err := e.AllreduceProfiled(r, core.DPML(l), mpi.Sum, v)
			if err != nil {
				return err
			}
			if r.Rank() == 0 {
				pt = res
			}
			return nil
		})
		return pt, err
	})
	if err != nil {
		return nil, err
	}
	for i, l := range cand {
		pt := times[i]
		measured["copy"].Points = append(measured["copy"].Points, Point{X: l, Y: pt.Copy.Micros()})
		measured["reduce"].Points = append(measured["reduce"].Points, Point{X: l, Y: pt.Reduce.Micros()})
		measured["inter"].Points = append(measured["inter"].Points, Point{X: l, Y: pt.Inter.Micros()})
		measured["bcast"].Points = append(measured["bcast"].Points, Point{X: l, Y: pt.Bcast.Micros()})
		p := params.With(nodes*ppn, nodes, l, bytes)
		model["model-copy"].Points = append(model["model-copy"].Points, Point{X: l, Y: p.CopyPhase() * 1e6})
		model["model-compute"].Points = append(model["model-compute"].Points, Point{X: l, Y: p.ComputePhase() * 1e6})
		model["model-comm"].Points = append(model["model-comm"].Points, Point{X: l, Y: p.CommPhase() * 1e6})
	}
	for _, k := range []string{"copy", "reduce", "inter", "bcast"} {
		t.Series = append(t.Series, *measured[k])
	}
	for _, k := range []string{"model-copy", "model-compute", "model-comm"} {
		t.Series = append(t.Series, *model[k])
	}
	t.Notes = append(t.Notes, "ablation beyond the paper: simulated phase times vs the Section 5 analytic terms")
	return t, nil
}

// pipelineAblation sweeps the DPML-Pipelined depth k (Section 4.2 / Eq. 5
// trade-off) for a very large message on Omni-Path.
func pipelineAblation(id string, opt Options) (*Table, error) {
	cl := topology.ClusterC()
	nodes, ppn := 16, 28
	if opt.Quick {
		nodes, ppn = 4, 8
	}
	l := 16
	if l > ppn {
		l = ppn
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("DPML-Pipelined depth sweep, %s, %d nodes x %d ppn, %d leaders", cl.Name, nodes, ppn, l),
		XLabel: "bytes",
		YLabel: "latency (us)",
	}
	sizes := []int{1 << 20, 4 << 20}
	if opt.Quick {
		sizes = []int{1 << 20}
	}
	series, err := sweep.Map(opt.Jobs, []int{1, 2, 4, 8, 16, 32}, func(_ int, k int) (Series, error) {
		spec := core.DPMLPipelined(l, k)
		if k == 1 {
			spec = core.DPML(l)
		}
		return LatencySeries(fmt.Sprintf("k=%d", k), cl, nodes, ppn,
			FixedSpec(spec), sizes, opt.Iters, opt.Warmup)
	})
	if err != nil {
		return nil, err
	}
	t.Series = series
	t.Notes = append(t.Notes, "ablation beyond the paper: Eq. 5 predicts k*a extra startup vs overlap gains; the sweet spot is the harness-measured minimum")
	return t, nil
}

// eagerAblation sweeps the eager/rendezvous threshold for the
// inter-leader phase (a DESIGN.md-listed ablation): rendezvous adds a
// handshake round trip per message but avoids copies for large payloads;
// the threshold decides where DPML's per-leader messages land.
func eagerAblation(id string, opt Options) (*Table, error) {
	cl := topology.ClusterB()
	nodes, ppn := 16, 28
	if opt.Quick {
		nodes, ppn = 4, 8
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Eager-threshold sensitivity, DPML-8, %s, %d nodes x %d ppn", cl.Name, nodes, ppn),
		XLabel: "bytes",
		YLabel: "latency (us)",
	}
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	if opt.Quick {
		sizes = []int{16 << 10, 64 << 10}
	}
	thrs := []int{1, 4 << 10, 16 << 10, 64 << 10, 1 << 20}
	cells := gridCells(len(thrs), len(sizes))
	spec := core.DPML(min(8, ppn))
	lats, err := sweep.Map(opt.Jobs, cells, func(_ int, c gridCell) (sim.Duration, error) {
		lat, err := AllreduceLatencyCfg(mpi.Config{EagerThreshold: thrs[c.row]}, cl, nodes, ppn,
			FixedSpec(spec), []int{sizes[c.col]}, opt.Iters, 1)
		if err != nil {
			return 0, err
		}
		return lat[0], nil
	})
	if err != nil {
		return nil, err
	}
	for ti, thr := range thrs {
		s := Series{Label: fmt.Sprintf("thr=%s", humanBytes(thr))}
		for si, bytes := range sizes {
			s.Points = append(s.Points, Point{X: bytes, Y: lats[ti*len(sizes)+si].Micros()})
		}
		t.Series = append(t.Series, s)
	}
	t.Notes = append(t.Notes, "ablation: thr=1 forces rendezvous everywhere (handshake per message); thr=1M forces eager (extra copies are not modelled, so large-eager looks optimistic)")
	return t, nil
}
