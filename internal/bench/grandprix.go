package bench

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// grandPrix is the cross-family ranking figure: every design family in
// the repo — flat, host-based, multi-leader, pipelined, SHArP, and the
// three related-work extensions — raced over message size x cluster
// shape x fault class on one seeded fabric. Each column is one scenario
// (shape, size, fault spec); each series is one design; every design in
// a column faces the identical plan, so a column is a fair heat and the
// per-column winner in the notes is a ranking, not noise. Cluster A is
// the venue because it is the only SHArP-capable fabric, so no family
// has to sit a heat out.
func grandPrix(id string, opt Options) (*Table, error) {
	cl := topology.ClusterA()
	shapes := []struct{ nodes, ppn int }{{8, 8}, {16, 16}}
	if opt.Quick {
		shapes = []struct{ nodes, ppn int }{{4, 4}}
	}
	sizes := []int{256, 64 << 10}
	// The fault dimension: a healthy fabric, degraded links and NICs
	// (topology-sensitive), stragglers only (the PAP regime), and the
	// full mix including the SHArP outage.
	specStrings := []string{"", "link@0.5,nic@0.5", "straggler@0.8", "all@0.7"}
	specs := make([]*faults.Spec, len(specStrings))
	for i, s := range specStrings {
		sp, err := faults.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			sp.Seed = opt.FaultSeed
		}
		specs[i] = sp
	}

	leaders := 8
	for _, sh := range shapes {
		leaders = min(leaders, sh.ppn)
	}
	cases := append([]designCase{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"flat-ring", core.Flat(mpi.AlgRing)},
		{"host-based", core.HostBased()},
		{fmt.Sprintf("dpml-%d", leaders), core.DPML(leaders)},
		{fmt.Sprintf("dpml-pipe-%dx4", leaders), core.DPMLPipelined(leaders, 4)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
	}, extensionCases()...)

	// Columns in shape-major, then size, then fault order.
	type column struct {
		shape struct{ nodes, ppn int }
		bytes int
		spec  *faults.Spec
		desc  string
	}
	var cols []column
	for _, sh := range shapes {
		for _, bytes := range sizes {
			for fi, sp := range specs {
				desc := specStrings[fi]
				if desc == "" {
					desc = "healthy"
				}
				cols = append(cols, column{
					shape: sh, bytes: bytes, spec: sp,
					desc: fmt.Sprintf("%dx%d %s %s", sh.nodes, sh.ppn, humanBytes(bytes), desc),
				})
			}
		}
	}

	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Design grand prix, %s: all families over shape x size x faults (seed %d)", cl.Name, opt.FaultSeed),
		XLabel: "scenario",
		YLabel: "latency (us)",
	}
	cells := gridCells(len(cases), len(cols))
	lats, err := sweep.Map(opt.Jobs, cells, func(_ int, c gridCell) (sim.Duration, error) {
		cse, col := cases[c.row], cols[c.col]
		cfg := opt.latencyConfig(cl, col.shape.nodes, col.shape.ppn)
		cfg.Faults = col.spec.Instantiate(faults.Shape{
			Ranks: col.shape.nodes * col.shape.ppn, Nodes: col.shape.nodes, HCAs: cl.HCAs,
		})
		lat, err := AllreduceLatency(cfg, cl, col.shape.nodes, col.shape.ppn,
			FixedSpec(cse.spec), []int{col.bytes}, opt.Iters, opt.Warmup)
		if err != nil {
			return 0, fmt.Errorf("%s in scenario %q: %w", cse.label, col.desc, err)
		}
		return lat[0], nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cse := range cases {
		s := Series{Label: cse.label}
		for xi := range cols {
			s.Points = append(s.Points, Point{X: xi, Y: lats[ci*len(cols)+xi].Micros()})
		}
		t.Series = append(t.Series, s)
	}
	// One note per scenario: what the column means and who won the heat.
	for xi, col := range cols {
		best, bestLat := 0, lats[xi]
		for ci := 1; ci < len(cases); ci++ {
			if l := lats[ci*len(cols)+xi]; l < bestLat {
				best, bestLat = ci, l
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("scenario %d: %s — winner %s (%.2fus)",
			xi, col.desc, cases[best].label, bestLat.Micros()))
	}
	return t, nil
}
