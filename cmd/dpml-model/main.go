// Command dpml-model explores the Section 5 cost model: per-phase cost
// breakdowns (Eqs. 2-6), the total (Eq. 7), the flat recursive-doubling
// reference (Eq. 1), and the model's optimal leader count per message
// size.
//
// Usage:
//
//	dpml-model -cluster B -nodes 16 -ppn 28
//	dpml-model -cluster C -nodes 64 -ppn 28 -leaders 8 -bytes 524288
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dpml/internal/costmodel"
	"dpml/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the tables to stdout
// and errors to stderr, and returns the exit status (0 ok, 1 a bad
// parameter, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clusterName = fs.String("cluster", "B", "cluster: A, B, C, or D")
		nodes       = fs.Int("nodes", 16, "number of nodes")
		ppn         = fs.Int("ppn", 28, "processes per node")
		leaders     = fs.Int("leaders", 0, "leader count for the breakdown (0 = model optimum)")
		k           = fs.Int("k", 1, "pipeline sub-partitions (Eq. 5, and dual-root segments)")
		groupSize   = fs.Int("g", 0, "generalized-allreduce group size (0 = ceil(sqrt(p)))")
		stragglers  = fs.Int("stragglers", 2, "predicted straggler count for the PAP estimates")
		delta       = fs.Float64("delta", 10e-6, "predicted arrival spread in seconds for the PAP estimates")
		sizesFlag   = fs.String("sizes", "4,256,4096,65536,524288,4194304", "comma-separated message sizes in bytes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpml-model:", err)
		return 1
	}

	cl := topology.ByName(*clusterName)
	if cl == nil {
		return fail(fmt.Errorf("unknown cluster %q", *clusterName))
	}
	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			return fail(fmt.Errorf("bad size %q", s))
		}
		sizes = append(sizes, n)
	}

	base := costmodel.FromCluster(cl)
	base.K = *k
	fmt.Fprintf(stdout, "# Cost model (Section 5), %s, %d nodes x %d ppn\n", cl.Name, *nodes, *ppn)
	fmt.Fprintf(stdout, "# a=%.3gus b=%.3gns/B a'=%.3gus b'=%.3gns/B c=%.3gns/B k=%d\n",
		base.A*1e6, base.B*1e9, base.APrime*1e6, base.BPrime*1e9, base.C*1e9, *k)
	fmt.Fprintf(stdout, "%10s %8s %12s %12s | %10s %10s %10s %10s | %12s\n",
		"bytes", "opt-l", "Eq7(us)", "Eq1-RD(us)", "copy", "compute", "comm", "bcast", "pipe-Eq5")
	for _, n := range sizes {
		// Validate the requested leader count (1 stands in for "model
		// optimum", which is valid whenever the shape is).
		p := base.With(*nodes**ppn, *nodes, max(*leaders, 1), n)
		if err := p.Validate(); err != nil {
			return fail(err)
		}
		opt := p.OptimalLeaders()
		if *leaders <= 0 {
			p.L = opt
		}
		br := p.PhaseBreakdown()
		fmt.Fprintf(stdout, "%10d %8d %12.2f %12.2f | %10.2f %10.2f %10.2f %10.2f | %12.2f\n",
			n, opt, p.DPML()*1e6, p.RecursiveDoubling()*1e6,
			br[0]*1e6, br[1]*1e6, br[2]*1e6, br[3]*1e6, p.DPMLPipelined()*1e6)
	}

	// Extension families: the related-work designs in the same a/b/c
	// vocabulary, for ranking against Eq. 7.
	procs := *nodes * *ppn
	g := *groupSize
	if g <= 0 {
		for g = 1; g*g < procs; g++ {
		}
	}
	fmt.Fprintf(stdout, "\n# Extension families: k=%d g=%d stragglers=%d delta=%.3gus\n",
		*k, g, *stragglers, *delta*1e6)
	fmt.Fprintf(stdout, "%10s %12s %12s %12s %12s\n",
		"bytes", "dualroot(us)", "genall(us)", "pap-sort(us)", "pap-ring(us)")
	for _, n := range sizes {
		p := base.With(procs, *nodes, 1, n)
		p.G, p.S, p.Delta = g, *stragglers, *delta
		if err := p.Validate(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%10d %12.2f %12.2f %12.2f %12.2f\n",
			n, p.DualRoot()*1e6, p.GenAll()*1e6, p.PAPSorted()*1e6, p.PAPRing()*1e6)
	}
	return 0
}
