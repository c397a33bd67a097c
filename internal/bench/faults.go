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

// faultSweep is the robustness figure: allreduce latency under
// increasing fault intensity for the flat, host-based, multi-leader, and
// SHArP designs. Each (design, intensity) cell runs its own simulated
// job with a plan instantiated from the same seed, so every design faces
// the same stragglers, degraded links, throttled NICs, and SHArP outage.
// Intensity 0 is the healthy fabric and reproduces the fault-free
// latency exactly; the SHArP series shows graceful degradation, not
// failure, once the outage forces it onto the host fallback path.
func faultSweep(id string, opt Options) (*Table, error) {
	cl := topology.ClusterA() // the only SHArP-capable fabric
	nodes, ppn := 16, 28
	if opt.Quick {
		nodes, ppn = 4, 8
	}
	// Small enough that the switch tree beats the host path (Fig 8), so
	// the SHArP series shows a real cost when the outage forces the
	// fallback, not just noise.
	const bytes = 256
	intensities := []float64{0, 0.25, 0.5, 1}
	classes := faults.Classes()
	if opt.FaultSpec != nil && len(opt.FaultSpec.Classes) > 0 {
		classes = opt.FaultSpec.Classes
	}
	leaders := min(8, ppn)
	cases := []designCase{
		{"flat-rd", core.Flat(mpi.AlgRecursiveDoubling)},
		{"host-based", core.HostBased()},
		{fmt.Sprintf("dpml-%d", leaders), core.DPML(leaders)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
	}
	// The related-work families face the same plans: the arrival-aware
	// designs get to read each plan's straggler table, which is exactly
	// the regime they were published for.
	cases = append(cases, extensionCases()...)
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Fault tolerance at 256B, %s, %d nodes x %d ppn (classes: %v)", cl.Name, nodes, ppn, classes),
		XLabel: "intensity (%)",
		YLabel: "latency (us)",
	}
	shape := faults.Shape{Ranks: nodes * ppn, Nodes: nodes}
	cells := gridCells(len(cases), len(intensities))
	lats, err := sweep.Map(opt.Jobs, cells, func(_ int, c gridCell) (sim.Duration, error) {
		cfg := opt.latencyConfig(cl, nodes, ppn)
		cfg.Faults = nil // intensity 0 is the healthy fabric
		if in := intensities[c.col]; in > 0 {
			spec := &faults.Spec{Classes: classes, Intensity: in, Seed: opt.FaultSeed}
			cfg.Faults = spec.Instantiate(shape)
		}
		lat, err := AllreduceLatency(cfg, cl, nodes, ppn,
			cases[c.row].spec, []int{bytes}, opt.Iters, opt.Warmup)
		if err != nil {
			return 0, fmt.Errorf("%s at intensity %g: %w", cases[c.row].label, intensities[c.col], err)
		}
		return lat[0], nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cse := range cases {
		s := Series{Label: cse.label}
		for ii, in := range intensities {
			s.Points = append(s.Points, Point{X: int(in * 100), Y: lats[ci*len(intensities)+ii].Micros()})
		}
		t.Series = append(t.Series, s)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("extension figure: seeded fault plans (seed %d), identical across designs at each intensity", opt.FaultSeed),
		"sharp-node completes via host fallback whenever the plan's SHArP outage is active")
	return t, nil
}
