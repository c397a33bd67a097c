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
	"os"
	"strings"
	"time"

	"dpml/internal/bench"
	"dpml/internal/faults"
	"dpml/internal/sim"
	"dpml/internal/sweep"
)

func main() {
	var (
		figure    = flag.String("figure", "all", "figure id (see -list) or 'all'")
		quick     = flag.Bool("quick", false, "shrink job sizes for a fast run")
		iters     = flag.Int("iters", 0, "timed iterations per point (0 = default)")
		warmup    = flag.Int("warmup", 0, "warmup iterations per point (0 = default)")
		jobs      = flag.Int("j", 0, "host threads: parallel simulation jobs, each on as many kernel shards (0 = all cores, 1 = serial); output is identical for every value")
		list      = flag.Bool("list", false, "list figure ids and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		out       = flag.String("o", "", "write output to file instead of stdout")
		faultSpec = flag.String("faults", "", "inject a seeded fault plan into allreduce-latency figures: comma-separated classes with optional @intensity, e.g. 'straggler@0.25,link' or 'all@0.8' (empty = healthy fabric); also selects the classes the 'faults' figure sweeps")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for fault-plan instantiation; different seeds fault different ranks, links, and windows")
		watchdog  = flag.Duration("watchdog", 0, "virtual-time deadline per simulated job (e.g. 500ms); a job not finished by then aborts with a diagnostic naming the blocked ranks (0 = off)")
	)
	flag.Parse()

	spec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if spec != nil {
		spec.Seed = *faultSeed
	}

	if *list {
		fmt.Println(strings.Join(bench.FigureIDs(), "\n"))
		return
	}

	stopProf, err := bench.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
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
		fatal(err)
	}
	for _, tb := range tables {
		tb.Render(w)
		fmt.Fprintln(w)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpml-bench:", err)
	os.Exit(1)
}
