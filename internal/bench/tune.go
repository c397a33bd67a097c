package bench

import (
	"fmt"

	"dpml/internal/core"
	"dpml/internal/costmodel"
	"dpml/internal/mpi"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// TuneResult is the outcome of an empirical DPML tuning sweep: the full
// latency table plus, per message size, the measured best leader count,
// the shipped tuning table's choice, and the cost model's prediction.
type TuneResult struct {
	Table     *Table
	Best      map[int]int // bytes -> measured best leader count
	Shipped   map[int]int // bytes -> core.BestLeaders choice
	Predicted map[int]int // bytes -> Eq. 7 argmin
}

// TuneDPML performs the Section 6.4 procedure: run every candidate
// leader count at every message size on the given job and record the
// winners. This is how the shipped BestLeaders table was derived. Each
// candidate sweep runs as an independent job bounded by `jobs` workers
// (0 = all cores); winners are picked after the fan-in, in candidate
// order, so the result is identical at every worker count.
func TuneDPML(cl *topology.Cluster, nodes, ppn int, leaders, sizes []int, iters, warmup, jobs int) (*TuneResult, error) {
	if len(leaders) == 0 || len(sizes) == 0 {
		return nil, fmt.Errorf("bench: TuneDPML needs candidates and sizes")
	}
	res := &TuneResult{
		Table: &Table{
			ID:     "tune",
			Title:  fmt.Sprintf("DPML tuning sweep, %s, %d nodes x %d ppn", cl.Name, nodes, ppn),
			XLabel: "bytes",
			YLabel: "latency (us)",
		},
		Best:      map[int]int{},
		Shipped:   map[int]int{},
		Predicted: map[int]int{},
	}
	var cand []int
	for _, l := range leaders {
		if l <= ppn {
			cand = append(cand, l)
		}
	}
	series, err := sweep.Map(jobs, cand, func(_ int, l int) (Series, error) {
		return LatencySeries(mpi.Config{}, fmt.Sprintf("l=%d", l), cl, nodes, ppn,
			core.DPML(l), sizes, iters, warmup)
	})
	if err != nil {
		return nil, err
	}
	best := map[int]float64{}
	for i, s := range series {
		res.Table.Series = append(res.Table.Series, s)
		for _, p := range s.Points {
			if cur, ok := best[p.X]; !ok || p.Y < cur {
				best[p.X] = p.Y
				res.Best[p.X] = cand[i]
			}
		}
	}
	params := costmodel.FromCluster(cl)
	for _, bytes := range sizes {
		res.Shipped[bytes] = core.BestLeaders(ppn, bytes)
		res.Predicted[bytes] = params.With(nodes*ppn, nodes, 1, bytes).OptimalLeaders()
		res.Table.Notes = append(res.Table.Notes,
			fmt.Sprintf("%s: measured best l=%d, table l=%d, model l=%d",
				humanBytes(bytes), res.Best[bytes], res.Shipped[bytes], res.Predicted[bytes]))
	}
	return res, nil
}
