// Command dpml-trace runs an allreduce workload with event tracing and
// prints a profile: per-kind totals, the busiest ranks, and (optionally)
// the raw event log as CSV, a per-phase breakdown, the critical path,
// a metrics-registry snapshot, or a Chrome trace_event JSON file
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	dpml-trace -cluster B -nodes 4 -ppn 8 -design dpml-8 -bytes 524288
//	dpml-trace -cluster A -lib proposed -bytes 256 -csv events.csv
//	dpml-trace -cluster A -design sharp-node -phases -critpath -metrics
//	dpml-trace -cluster B -design dpml-pipe-4x4:ring -chrome trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"dpml/internal/bench"
	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

func main() {
	var (
		clusterName = flag.String("cluster", "B", "cluster: A, B, C, or D")
		nodes       = flag.Int("nodes", 4, "number of nodes")
		ppn         = flag.Int("ppn", 8, "processes per node")
		design      = flag.String("design", "dpml-4", "design name (see dpml-osu)")
		lib         = flag.String("lib", "", "library selector instead of -design")
		bytes       = flag.Int("bytes", 64<<10, "message size")
		iters       = flag.Int("iters", 2, "allreduce iterations")
		csvPath     = flag.String("csv", "", "write the raw event log to this file")
		limit       = flag.Int("limit", 1<<20, "max events kept")
		chromePath  = flag.String("chrome", "", "write a Chrome trace_event JSON file (open in Perfetto)")
		phases      = flag.Bool("phases", false, "print the per-phase time breakdown")
		critpath    = flag.Bool("critpath", false, "print the critical path and per-phase slack")
		metricsFlag = flag.Bool("metrics", false, "print the metrics-registry snapshot")
		shards      = flag.Int("shards", 0, "kernel shards (parallelize the run across threads; 0 = DPML_SHARDS env or 1); trace output is bit-identical for every value")
	)
	flag.Parse()

	choose, _, err := bench.ChooserFor(*lib, *design)
	if err != nil {
		fatal(err)
	}
	cl := topology.ByName(*clusterName)
	if cl == nil {
		fatal(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	job, err := topology.NewJob(cl, *nodes, *ppn)
	if err != nil {
		fatal(err)
	}
	rec := trace.New(*limit)
	w := mpi.NewWorld(job, mpi.Config{Trace: rec, Shards: *shards})
	e := core.NewEngine(w)

	count := max(*bytes/4, 1)
	spec := choose(e, count*4)
	if err := e.Validate(spec); err != nil {
		fatal(err)
	}
	err = w.Run(func(r *mpi.Rank) error {
		v := mpi.NewPhantom(mpi.Float32, count)
		for i := 0; i < *iters; i++ {
			if err := e.Allreduce(r, spec, mpi.Sum, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload: %d x allreduce(%d bytes) with %s on %s, %d nodes x %d ppn\n",
		*iters, count*4, spec, cl.Name, *nodes, *ppn)
	fmt.Printf("virtual time: %v\n", w.Now())
	rec.Summary(os.Stdout)
	// Fabric utilization over the run.
	elapsed := w.Now().Sub(0)
	var busiest string
	var peak float64
	for _, lr := range w.Net.Report() {
		if u := float64(lr.Bytes) / (lr.Capacity * elapsed.Seconds()); u > peak {
			peak, busiest = u, lr.Name
		}
	}
	if busiest != "" {
		fmt.Printf("busiest NIC link: %s at %.1f%% of capacity over the run\n", busiest, 100*peak)
	}
	for node, m := range w.Mem {
		lr := m.Report()
		if node == 0 {
			fmt.Printf("node 0 memory system: %d bytes moved, busy %v\n", lr.Bytes, lr.Busy)
		}
	}
	if *phases {
		fmt.Println()
		rec.WritePhaseReport(os.Stdout)
		if ar := rec.CollectiveArrivals(); ar.Ops > 0 {
			fmt.Printf("arrival skew: %d ops, spread max %v mean %v, imbalance max %.3f mean %.3f\n",
				ar.Ops, ar.MaxSpread, ar.MeanSpread, ar.MaxImbalance, ar.MeanImbalance)
		}
	}
	if *critpath {
		fmt.Println()
		rec.CriticalPath().Write(os.Stdout)
	}
	if *metricsFlag {
		fmt.Println()
		w.Metrics().WriteText(os.Stdout)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d events to %s\n", rec.Len(), *csvPath)
	}
	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		nodeOf := func(rank int) int { return job.Place(rank).Node }
		if err := rec.WriteChrome(f, nodeOf); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d events to %s (open in Perfetto)\n", rec.Len(), *chromePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpml-trace:", err)
	os.Exit(1)
}
