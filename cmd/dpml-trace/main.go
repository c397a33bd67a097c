// Command dpml-trace runs an allreduce workload with event tracing and
// prints a profile: per-kind totals, the busiest ranks, and (optionally)
// the raw event log as CSV, a per-phase breakdown, the critical path,
// a metrics-registry snapshot, or a Chrome trace_event JSON file
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	dpml-trace -cluster B -nodes 4 -ppn 8 -design dpml-8 -bytes 524288
//	dpml-trace -cluster A -design proposed -bytes 256 -csv events.csv
//	dpml-trace -cluster A -design sharp-node -phases -critpath -metrics
//	dpml-trace -cluster B -design dpml-pipe-4x4 -chrome trace.json
//
// The workload line names the spec that ran: for a selector design
// (mvapich2, intelmpi, proposed, pap-aware), the one it picks for the
// message size.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the profile to stdout
// and errors to stderr, and returns the exit status (0 ok, 1 a failed
// run or bad parameter, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clusterName = fs.String("cluster", "B", "cluster: A, B, C, or D")
		nodes       = fs.Int("nodes", 4, "number of nodes")
		ppn         = fs.Int("ppn", 8, "processes per node")
		design      = fs.String("design", "dpml-4", "design name, or a per-size selector (see dpml-osu)")
		bytes       = fs.Int("bytes", 64<<10, "message size")
		iters       = fs.Int("iters", 2, "allreduce iterations")
		csvPath     = fs.String("csv", "", "write the raw event log to this file")
		limit       = fs.Int("limit", 1<<20, "max events kept")
		chromePath  = fs.String("chrome", "", "write a Chrome trace_event JSON file (open in Perfetto)")
		phases      = fs.Bool("phases", false, "print the per-phase time breakdown")
		critpath    = fs.Bool("critpath", false, "print the critical path and per-phase slack")
		metricsFlag = fs.Bool("metrics", false, "print the metrics-registry snapshot")
		shards      = fs.Int("shards", 0, "kernel shards (parallelize the run across threads; 0 = DPML_SHARDS env or 1); trace output is bit-identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpml-trace:", err)
		return 1
	}
	if *bytes <= 0 {
		return fail(fmt.Errorf("bad size %d", *bytes))
	}
	if *iters < 1 {
		return fail(fmt.Errorf("bad iters %d", *iters))
	}

	spec, err := core.ParseDesign(*design)
	if err != nil {
		return fail(err)
	}
	cl := topology.ByName(*clusterName)
	if cl == nil {
		return fail(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	job, err := topology.NewJob(cl, *nodes, *ppn)
	if err != nil {
		return fail(err)
	}
	rec := trace.New(*limit)
	w := mpi.NewWorld(job, mpi.Config{Trace: rec, Shards: *shards})
	e := core.NewEngine(w)

	count := max(*bytes/4, 1)
	spec = e.Resolve(spec, count*4)
	if err := e.Validate(spec); err != nil {
		return fail(err)
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
		return fail(err)
	}

	fmt.Fprintf(stdout, "workload: %d x allreduce(%d bytes) with %s on %s, %d nodes x %d ppn\n",
		*iters, count*4, spec, cl.Name, *nodes, *ppn)
	fmt.Fprintf(stdout, "virtual time: %v\n", w.Now())
	rec.Summary(stdout)
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
		fmt.Fprintf(stdout, "busiest NIC link: %s at %.1f%% of capacity over the run\n", busiest, 100*peak)
	}
	for node, m := range w.Mem {
		lr := m.Report()
		if node == 0 {
			fmt.Fprintf(stdout, "node 0 memory system: %d bytes moved, busy %v\n", lr.Bytes, lr.Busy)
		}
	}
	if *phases {
		fmt.Fprintln(stdout)
		rec.WritePhaseReport(stdout)
		if ar := rec.CollectiveArrivals(); ar.Ops > 0 {
			fmt.Fprintf(stdout, "arrival skew: %d ops, spread max %v mean %v, imbalance max %.3f mean %.3f\n",
				ar.Ops, ar.MaxSpread, ar.MeanSpread, ar.MaxImbalance, ar.MeanImbalance)
		}
	}
	if *critpath {
		fmt.Fprintln(stdout)
		rec.CriticalPath().Write(stdout)
	}
	if *metricsFlag {
		fmt.Fprintln(stdout)
		w.Metrics().WriteText(stdout)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d events to %s\n", rec.Len(), *csvPath)
	}
	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		nodeOf := func(rank int) int { return job.Place(rank).Node }
		if err := rec.WriteChrome(f, nodeOf); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d events to %s (open in Perfetto)\n", rec.Len(), *chromePath)
	}
	return 0
}
