package bench

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// noiseSensitivity measures how system noise (deterministic per-message
// jitter) inflates allreduce latency for designs with different numbers
// of sequential communication steps. Flat recursive doubling has
// ceil(lg p) dependent inter-node steps per rank; DPML cuts that to
// ceil(lg h) on 1/l of the data, so it absorbs stragglers better — an
// effect the paper's step-count analysis (Section 5.3) implies but never
// plots. This is an extension figure.
func noiseSensitivity(id string, opt Options) (*Table, error) {
	cl := topology.ClusterB()
	nodes, ppn := 16, 28
	if opt.Quick {
		nodes, ppn = 4, 8
	}
	const bytes = 64 << 10
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Noise sensitivity at 64KB, %s, %d nodes x %d ppn", cl.Name, nodes, ppn),
		XLabel: "jitter (us/message)",
		YLabel: "latency (us)",
	}
	jitters := []sim.Duration{0, 2 * sim.Microsecond, 8 * sim.Microsecond, 32 * sim.Microsecond}
	cases := []designCase{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"flat-rabenseifner", core.Flat(mpi.AlgRabenseifner)},
		{"dpml-16", core.DPML(min(16, ppn))},
	}
	cells := gridCells(len(cases), len(jitters))
	lats, err := sweep.Map(opt.Jobs, cells, func(_ int, c gridCell) (sim.Duration, error) {
		cfg := opt.latencyConfig(cl, nodes, ppn)
		cfg.Jitter, cfg.JitterSeed = jitters[c.col], 7
		lat, err := AllreduceLatency(cfg, cl, nodes, ppn,
			cases[c.row].spec, []int{bytes}, opt.Iters, 1)
		if err != nil {
			return 0, err
		}
		return lat[0], nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cse := range cases {
		s := Series{Label: cse.label}
		for ji, j := range jitters {
			s.Points = append(s.Points, Point{X: int(j.Micros()), Y: lats[ci*len(jitters)+ji].Micros()})
		}
		t.Series = append(t.Series, s)
	}
	t.Notes = append(t.Notes, "extension figure: per-message jitter inflates multi-step flat algorithms more than the few-step DPML design")
	return t, nil
}
