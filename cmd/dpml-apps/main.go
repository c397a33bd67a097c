// Command dpml-apps runs the application kernels (HPCG-like CG,
// miniAMR-like refinement, DNN training) on a chosen cluster and prints
// their headline metrics — the command-line face of Figure 11's
// workloads.
//
// Usage:
//
//	dpml-apps -app hpcg -cluster A -nodes 16 -ppn 28 -design sharp-socket
//	dpml-apps -app miniamr -cluster C -nodes 16 -ppn 16
//	dpml-apps -app dnn -cluster D -nodes 8 -ppn 16 -bucket 1048576
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"dpml/internal/apps/dnn"
	"dpml/internal/apps/hpcg"
	"dpml/internal/apps/miniamr"
	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the metrics to stdout
// and errors to stderr, and returns the exit status (0 ok, 1 a failed
// run or bad parameter, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-apps", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app         = fs.String("app", "hpcg", "workload: hpcg, miniamr, or dnn")
		clusterName = fs.String("cluster", "A", "cluster: A, B, C, D, or E")
		nodes       = fs.Int("nodes", 4, "number of nodes")
		ppn         = fs.Int("ppn", 8, "processes per node")
		design      = fs.String("design", "proposed", "allreduce design name, including the per-size selectors mvapich2, intelmpi, proposed, pap-aware (see dpml-osu)")
		iters       = fs.Int("iters", 20, "CG iterations (hpcg)")
		steps       = fs.Int("steps", 3, "refinement/training steps (miniamr, dnn)")
		bucket      = fs.Int("bucket", 0, "gradient bucket bytes (dnn; 0 = per layer)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpml-apps:", err)
		return 1
	}

	if !slices.Contains([]string{"hpcg", "miniamr", "dnn"}, *app) {
		return fail(fmt.Errorf("unknown app %q", *app))
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
	e := core.NewEngine(mpi.NewWorld(job, mpi.Config{}))
	if err := e.Validate(spec); err != nil {
		return fail(err)
	}
	// The job header goes out only with a successful run's metrics, so a
	// rejected app parameter prints nothing to stdout.
	var metrics string
	switch *app {
	case "hpcg":
		res, err := hpcg.Run(e, hpcg.Config{Nx: 16, Ny: 16, Nz: 8, Iterations: *iters, Real: true, Spec: spec})
		if err != nil {
			return fail(err)
		}
		metrics = fmt.Sprintf("  DDOT time  %v\n  total time %v\n  residual drop %.2e over %d iterations\n",
			res.DDOTTime, res.TotalTime, res.ResidualDrop, res.Iterations)
	case "miniamr":
		res, err := miniamr.Run(e, miniamr.Config{BlocksPerRank: 32, BlockBytes: 4096, Steps: *steps, Spec: spec})
		if err != nil {
			return fail(err)
		}
		metrics = fmt.Sprintf("  refinement time %v over %d steps (design %s)\n", res.RefineTime, res.Steps, spec)
	case "dnn":
		res, err := dnn.Run(e, dnn.Config{Layers: dnn.ResNet50ish(), Steps: *steps, BucketBytes: *bucket, Spec: spec})
		if err != nil {
			return fail(err)
		}
		metrics = fmt.Sprintf("  step time %v, gradient averaging %v (%d allreduces/step, design %s)\n",
			res.StepTime, res.CommTime, res.Allreduces, spec)
	}
	fmt.Fprintf(stdout, "%s on %s, %d nodes x %d ppn (%d procs)\n%s", *app, cl.Name, *nodes, *ppn, job.NumProcs(), metrics)
	return 0
}
