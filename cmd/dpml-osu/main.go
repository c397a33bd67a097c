// Command dpml-osu is the osu_allreduce equivalent: it sweeps message
// sizes and prints the average allreduce latency for a chosen design on
// a chosen cluster. A selector design (mvapich2, intelmpi, proposed,
// pap-aware) picks its configuration per size, as a library would.
//
// Usage:
//
//	dpml-osu -cluster B -nodes 16 -ppn 28 -design dpml-8
//	dpml-osu -cluster B -nodes 16 -ppn 28 -design dpml-8:ring
//	dpml-osu -cluster D -nodes 32 -ppn 64 -design proposed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dpml/internal/bench"
	"dpml/internal/core"
	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the latency table to
// stdout and errors to stderr, and returns the exit status (0 ok, 1 a
// failed run or bad parameter, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dpml-osu", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clusterName = fs.String("cluster", "B", "cluster: A, B, C, or D")
		nodes       = fs.Int("nodes", 4, "number of nodes")
		ppn         = fs.Int("ppn", 8, "processes per node")
		design      = fs.String("design", "dpml-1", "design name: flat[:<alg>], host-based, dpml-<l>[:<alg>], dpml-pipe-<l>x<k>, sharp-node, sharp-socket, dualroot[-s<n>], genall[-g<n>], pap-sorted, pap-ring, or a per-size selector: mvapich2, intelmpi, proposed, pap-aware")
		sizesFlag   = fs.String("sizes", "4,64,1024,16384,262144,1048576", "comma-separated message sizes in bytes")
		iters       = fs.Int("iters", 5, "timed iterations per size")
		warmup      = fs.Int("warmup", 1, "warmup iterations per size")
		jobs        = fs.Int("j", 0, "host threads: parallel simulation jobs, each on as many kernel shards (0 = all cores, 1 = serial); each size runs its own simulated job, so output is identical for every value")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = fs.String("memprofile", "", "write a heap profile to this file on exit")
		faultSpec   = fs.String("faults", "", "inject a seeded fault plan: comma-separated classes with optional @intensity, e.g. 'straggler@0.25,link' or 'all@0.8' (empty = healthy fabric)")
		faultSeed   = fs.Uint64("fault-seed", 0, "seed for fault-plan instantiation")
		watchdog    = fs.Duration("watchdog", 0, "virtual-time deadline per simulated job; a job not finished by then aborts with a diagnostic naming the blocked ranks (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpml-osu:", err)
		return 1
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "dpml-osu: bad -j %d\n", *jobs)
		return 2
	}
	if *watchdog < 0 {
		fmt.Fprintf(stderr, "dpml-osu: bad -watchdog %v\n", *watchdog)
		return 2
	}

	stopProf, err := bench.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	cl := topology.ByName(*clusterName)
	if cl == nil {
		return fail(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	fspec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		return fail(err)
	}
	if fspec != nil {
		fspec.Seed = *faultSeed
	}
	cfg := mpi.Config{
		Shards:   sweep.Workers(*jobs),
		Watchdog: sim.Duration(*watchdog / time.Nanosecond),
		Faults: fspec.Instantiate(faults.Shape{
			Ranks: *nodes * *ppn, Nodes: *nodes,
		}),
	}
	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return fail(fmt.Errorf("bad size %q", s))
		}
		sizes = append(sizes, n)
	}
	if err := bench.CheckSizes(sizes); err != nil {
		return fail(err)
	}
	spec, err := core.ParseDesign(*design)
	if err != nil {
		return fail(err)
	}
	// Every size runs its own job; check the shape, the spec and the
	// iteration counts once here, by measuring no sizes, so a bad input
	// is one error line, not one per size.
	if _, err := bench.AllreduceLatency(cfg, cl, *nodes, *ppn, spec, nil, *iters, *warmup); err != nil {
		return fail(err)
	}

	// Each size is an independent simulated job with its own warmup, so a
	// value can differ from a figure's one-world sweep in the last digit,
	// but not across -j. Sizes fan across -j workers, printed in order.
	lat, err := sweep.Map(*jobs, sizes, func(_ int, bytes int) (sim.Duration, error) {
		one, err := bench.AllreduceLatency(cfg, cl, *nodes, *ppn, spec, []int{bytes}, *iters, *warmup)
		if err != nil {
			return 0, err
		}
		return one[0], nil
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# MPI_Allreduce latency, %s, %d nodes x %d ppn (%d procs), %s\n",
		cl.Name, *nodes, *ppn, *nodes**ppn, spec)
	fmt.Fprintf(stdout, "%12s %16s\n", "bytes", "latency(us)")
	for i, n := range sizes {
		fmt.Fprintf(stdout, "%12d %16.2f\n", n, lat[i].Micros())
	}
	return 0
}
