// Command dpml-mbw is the osu_mbw_mr equivalent: aggregate multi-pair
// throughput and the relative-throughput curves of Figure 1.
//
// Usage:
//
//	dpml-mbw -cluster C                 # inter-node, Omni-Path
//	dpml-mbw -cluster C -intra          # intra-node shared memory
//	dpml-mbw -cluster B -pairs 1,4,16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dpml/internal/bench"
	"dpml/internal/mpi"
	"dpml/internal/sweep"
	"dpml/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, measures every pair count,
// writes the table to stdout and errors to stderr, and returns the exit
// status (0 ok, 1 a failed run or bad parameter, 2 a usage error).
// Nothing is printed before every measurement has succeeded.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-mbw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clusterName = fs.String("cluster", "C", "cluster: A, B, C, D, or E")
		intra       = fs.Bool("intra", false, "place both ends of each pair on one node")
		pairsFlag   = fs.String("pairs", "1,2,4,8,16", "comma-separated pair counts")
		sizesFlag   = fs.String("sizes", "4,64,1024,16384,262144,1048576", "comma-separated message sizes in bytes")
		window      = fs.Int("window", 64, "messages in flight per pair")
		iters       = fs.Int("iters", 2, "iterations per size")
		relative    = fs.Bool("relative", true, "print throughput relative to 1 pair (Figure 1 style)")
		jobs        = fs.Int("j", 0, "host threads: parallel simulation jobs, each on as many kernel shards (0 = all cores, 1 = serial); output is identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "dpml-mbw: bad -j %d\n", *jobs)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpml-mbw:", err)
		return 1
	}

	cl := topology.ByName(*clusterName)
	if cl == nil {
		return fail(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	// Every pair count is its own job; check what they share once here,
	// so a bad value is one error line, not one per job.
	if err := bench.CheckMBW(*window, *iters); err != nil {
		return fail(err)
	}
	parse := func(s string) ([]int, error) {
		var out []int
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad value %q", f)
			}
			out = append(out, n)
		}
		return out, nil
	}
	pairs, err := parse(*pairsFlag)
	if err != nil {
		return fail(err)
	}
	sizes, err := parse(*sizesFlag)
	if err == nil {
		err = bench.CheckSizes(sizes)
	}
	if err != nil {
		return fail(err)
	}

	mode := "inter-node"
	if *intra {
		mode = "intra-node"
	}
	if *relative {
		tb, err := bench.RelativeThroughput("mbw",
			fmt.Sprintf("Relative throughput, %s, %s", mode, cl.Name),
			cl, *intra, pairs, sizes, *window, *iters, *jobs)
		if err != nil {
			return fail(err)
		}
		tb.Render(stdout)
		return 0
	}
	cols, err := sweep.Map(*jobs, pairs, func(_ int, p int) ([]float64, error) {
		return bench.MultiPairThroughput(mpi.Config{Shards: sweep.Workers(*jobs)}, cl, bench.MBWConfig{
			Pairs: p, Intra: *intra, Window: *window, Iters: *iters,
		}, sizes)
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# Aggregate throughput (MB/s), %s, %s\n", mode, cl.Name)
	fmt.Fprintf(stdout, "%12s", "bytes")
	for _, p := range pairs {
		fmt.Fprintf(stdout, " %10dp", p)
	}
	fmt.Fprintln(stdout)
	for si, n := range sizes {
		fmt.Fprintf(stdout, "%12d", n)
		for pi := range pairs {
			fmt.Fprintf(stdout, " %11.1f", cols[pi][si]/1e6)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
