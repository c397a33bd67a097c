// Command dpml-bench regenerates the paper's figures and tables.
//
// Usage:
//
//	dpml-bench -figure fig4            # one figure at full scale
//	dpml-bench -figure all -quick      # the whole suite at test scale
//	dpml-bench -figure all -quick -j 8 # same output, 8 host workers
//	dpml-bench -list                   # available figure ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dpml/internal/bench"
	"dpml/internal/faults"
	"dpml/internal/sim"
	"dpml/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the tables to stdout
// (or -o) and errors to stderr, and returns the exit status (0 ok, 1 a
// failed run, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dpml-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figure    = fs.String("figure", "all", "figure id (see -list) or 'all'")
		quick     = fs.Bool("quick", false, "shrink job sizes for a fast run")
		iters     = fs.Int("iters", 0, "timed iterations per point (0 = default)")
		warmup    = fs.Int("warmup", 0, "warmup iterations per point (0 = default)")
		jobs      = fs.Int("j", 0, "host threads: parallel simulation jobs, each on as many kernel shards (0 = all cores, 1 = serial); output is identical for every value")
		list      = fs.Bool("list", false, "list figure ids and exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		out       = fs.String("o", "", "write output to file instead of stdout")
		faultSpec = fs.String("faults", "", "inject a seeded fault plan into allreduce-latency figures: comma-separated classes with optional @intensity, e.g. 'straggler@0.25,link' or 'all@0.8' (empty = healthy fabric); also selects the classes the 'faults' figure sweeps")
		faultSeed = fs.Uint64("fault-seed", 0, "seed for fault-plan instantiation; different seeds fault different ranks, links, and windows")
		watchdog  = fs.Duration("watchdog", 0, "virtual-time deadline per simulated job (e.g. 500ms); a job not finished by then aborts with a diagnostic naming the blocked ranks (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "dpml-bench:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpml-bench:", err)
		return 1
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"iters", *iters}, {"warmup", *warmup}, {"j", *jobs}} {
		if f.v < 0 {
			return usage(fmt.Errorf("bad -%s %d", f.name, f.v))
		}
	}
	if *watchdog < 0 {
		return usage(fmt.Errorf("bad -watchdog %v", *watchdog))
	}

	spec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		return fail(err)
	}
	if spec != nil {
		spec.Seed = *faultSeed
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(bench.FigureIDs(), "\n"))
		return 0
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

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}

	opt := bench.Options{
		Quick: *quick, Iters: *iters, Warmup: *warmup, Jobs: *jobs,
		FaultSpec: spec, FaultSeed: *faultSeed, Watchdog: sim.Duration(*watchdog / time.Nanosecond),
	}
	ids := []string{*figure}
	if *figure == "all" {
		ids = bench.FigureIDs()
	}
	// Figures fan out through the sweep pool (as do the series inside
	// each figure) and come back in request order, so the rendered output
	// is byte-identical whatever -j is.
	tables, err := sweep.Map(opt.Jobs, ids, func(_ int, id string) (*bench.Table, error) {
		tb, err := bench.Figure(id, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		return tb, nil
	})
	if err != nil {
		return fail(err)
	}
	for _, tb := range tables {
		tb.Render(w)
		fmt.Fprintln(w)
	}
	return 0
}
