package bench

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/costmodel"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// The drivers in this file go beyond the paper's figures: ablations for
// design choices the paper motivates but does not plot separately.

// phaseBreakdown measures a leader rank's per-phase DPML times and sets
// them against the cost model's Eq. 2-6 terms. The times are rank 0's
// phase spans inside its timed allreduce, which follows one warm-up so
// they exclude first-op skew.
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
	phases := []struct{ label, span string }{
		{"copy", trace.PhaseCopy},
		{"reduce", trace.PhaseReduce},
		{"inter", trace.PhaseInter},
		{"bcast", trace.PhaseBcast},
	}
	measured := make([]Series, len(phases))
	for i, ph := range phases {
		measured[i].Label = ph.label
	}
	model := []Series{{Label: "model-copy"}, {Label: "model-compute"}, {Label: "model-comm"}}
	params := costmodel.FromCluster(cl)
	cand := leaderCandidates(ppn)
	times, err := sweep.Map(opt.Jobs, cand, func(_ int, l int) (map[string]sim.Duration, error) {
		cfg := opt.latencyConfig(cl, nodes, ppn)
		cfg.Trace = trace.New(0)
		if _, err := AllreduceLatency(cfg, cl, nodes, ppn, core.DPML(l), []int{bytes}, 1, 1); err != nil {
			return nil, err
		}
		return lastCollectivePhases(cfg.Trace), nil
	})
	if err != nil {
		return nil, err
	}
	for i, l := range cand {
		for pi, ph := range phases {
			measured[pi].Points = append(measured[pi].Points, Point{X: l, Y: times[i][ph.span].Micros()})
		}
		p := params.With(nodes*ppn, nodes, l, bytes)
		model[0].Points = append(model[0].Points, Point{X: l, Y: p.CopyPhase() * 1e6})
		model[1].Points = append(model[1].Points, Point{X: l, Y: p.ComputePhase() * 1e6})
		model[2].Points = append(model[2].Points, Point{X: l, Y: p.CommPhase() * 1e6})
	}
	t.Series = append(measured, model...)
	t.Notes = append(t.Notes, "ablation beyond the paper: simulated phase times vs the Section 5 analytic terms")
	return t, nil
}

// lastCollectivePhases sums rank 0's phase spans by phase name over its
// last collective: the spans that start at or after that collective's
// start.
func lastCollectivePhases(rec *trace.Recorder) map[string]sim.Duration {
	evs := rec.Events()
	var start sim.Time
	for _, ev := range evs {
		if ev.Rank == 0 && ev.Kind == trace.KindCollective {
			start = ev.Start
		}
	}
	out := map[string]sim.Duration{}
	for _, ev := range evs {
		if ev.Rank == 0 && ev.Kind == trace.KindPhase && ev.Start >= start {
			out[ev.Label] += ev.Duration()
		}
	}
	return out
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
		return LatencySeries(opt.latencyConfig(cl, nodes, ppn), fmt.Sprintf("k=%d", k), cl, nodes, ppn,
			core.DPMLPipelined(l, k), sizes, opt.Iters, opt.Warmup)
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
		// Each cell gets its own copy of the cluster: workers share cl.
		cell := *cl
		cell.Net.EagerThreshold = thrs[c.row]
		lat, err := AllreduceLatency(opt.latencyConfig(&cell, nodes, ppn), &cell, nodes, ppn,
			spec, []int{sizes[c.col]}, opt.Iters, 1)
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
