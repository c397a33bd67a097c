package bench

import (
	"fmt"

	"dpml/internal/mpi"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

// MBWConfig describes one osu_mbw_mr-style measurement: `pairs` sender/
// receiver pairs exchange windows of messages; the metric is aggregate
// throughput. Intra==true places both ends of every pair on one node
// (Figure 1a); otherwise all senders share node 0 and all receivers node
// 1 (Figures 1b-1d).
type MBWConfig struct {
	Pairs  int
	Intra  bool
	Window int // messages in flight per pair per iteration (osu uses 64)
	Iters  int
}

// CheckMBW rejects a window or iteration count that is not positive. A
// command that fans pair counts out across jobs checks them first, so a
// bad value is one error, not one per job.
func CheckMBW(window, iters int) error {
	if window <= 0 {
		return fmt.Errorf("bench: mbw window %d is not positive", window)
	}
	if iters <= 0 {
		return fmt.Errorf("bench: mbw iters %d is not positive", iters)
	}
	return nil
}

// MultiPairThroughput returns aggregate throughput in bytes/sec for each
// message size, measured in one simulated job built with world.
func MultiPairThroughput(world mpi.Config, cl *topology.Cluster, cfg MBWConfig, sizes []int) ([]float64, error) {
	if cfg.Pairs <= 0 {
		return nil, fmt.Errorf("bench: bad mbw pair count %d", cfg.Pairs)
	}
	if err := CheckMBW(cfg.Window, cfg.Iters); err != nil {
		return nil, err
	}
	if err := CheckSizes(sizes); err != nil {
		return nil, err
	}
	var job *topology.Job
	var err error
	if cfg.Intra {
		job, err = topology.NewJob(cl, 1, 2*cfg.Pairs)
	} else {
		job, err = topology.NewJob(cl, 2, cfg.Pairs)
	}
	if err != nil {
		return nil, err
	}
	w := mpi.NewWorld(job, world)
	// Pairing is (i, pairs+i) in both modes. Intra-node, with the block
	// CPU mapping this puts every sender on socket 0 and every receiver
	// on socket 1 (for pairs <= cores/socket), exactly like running
	// osu_mbw_mr with default placement on a dual-socket node — and,
	// importantly, uniformly cross-socket at every pair count, so
	// relative throughput isolates concurrency from placement.
	peer := func(rank int) (other int, sender bool) {
		if rank < cfg.Pairs {
			return rank + cfg.Pairs, true
		}
		return rank - cfg.Pairs, false
	}
	out := make([]float64, len(sizes))
	err = w.Run(func(r *mpi.Rank) error {
		c := w.CommWorld()
		other, sender := peer(r.Rank())
		ack := mpi.NewPhantom(mpi.Int32, 1)
		for si, bytes := range sizes {
			v := mpi.NewPhantom(mpi.Float32, bytes/4)
			r.Barrier(c)
			start := r.Now()
			for it := 0; it < cfg.Iters; it++ {
				if sender {
					reqs := make([]*mpi.Request, cfg.Window)
					for m := 0; m < cfg.Window; m++ {
						reqs[m] = r.Isend(c, other, m, v)
					}
					r.WaitAll(reqs...)
					r.Recv(c, other, 1<<19, ack)
				} else {
					reqs := make([]*mpi.Request, cfg.Window)
					for m := 0; m < cfg.Window; m++ {
						reqs[m] = r.Irecv(c, other, m, v)
					}
					r.WaitAll(reqs...)
					r.Send(c, other, 1<<19, ack)
				}
			}
			elapsed := r.Now().Sub(start)
			r.Barrier(c)
			if r.Rank() == 0 {
				total := float64(cfg.Pairs) * float64(cfg.Window) * float64(cfg.Iters) * float64(bytes)
				out[si] = total / elapsed.Seconds()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RelativeThroughput builds a Figure-1-style table: for each pair count,
// aggregate throughput relative to a single pair, per message size. The
// single-pair baseline and every pair count run as independent sweep jobs
// bounded by `jobs` workers (0 = all cores), each on `jobs` kernel
// shards; the division happens after the fan-in, so results match the
// serial run exactly.
func RelativeThroughput(id, title string, cl *topology.Cluster, intra bool, pairCounts []int, sizes []int, window, iters, jobs int) (*Table, error) {
	if err := CheckMBW(window, iters); err != nil {
		return nil, err
	}
	if err := CheckSizes(sizes); err != nil {
		return nil, err
	}
	counts := append([]int{1}, pairCounts...)
	thrs, err := sweep.Map(jobs, counts, func(_ int, pairs int) ([]float64, error) {
		return MultiPairThroughput(worldConfig(jobs), cl, MBWConfig{Pairs: pairs, Intra: intra, Window: window, Iters: iters}, sizes)
	})
	if err != nil {
		return nil, err
	}
	base := thrs[0]
	t := &Table{
		ID:     id,
		Title:  title,
		XLabel: "bytes",
		YLabel: "throughput relative to 1 pair",
	}
	for pi, pairs := range pairCounts {
		thr := thrs[pi+1]
		s := Series{Label: fmt.Sprintf("%d pairs", pairs)}
		for i, x := range sizes {
			rel := 0.0
			if base[i] > 0 {
				rel = thr[i] / base[i]
			}
			s.Points = append(s.Points, Point{X: x, Y: rel})
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}
