// Command dpml-verify explores the schedule space of the simulated
// collectives and asserts the full invariant battery on every reachable
// schedule: conformance against a serial reduction oracle, trace span
// tiling, critical-path accounting, watchdog cleanliness, and
// cross-schedule result invariance.
//
// Usage:
//
//	dpml-verify -schedules 32 -explore-seed 1        # 32 seeded schedules
//	dpml-verify -systematic -min-distinct 100        # DPOR-lite frontier
//	dpml-verify -design all -faults ';all@0.7'       # whole design/fault matrix
//	dpml-verify -design flat,host-based              # a list of designs
//	dpml-verify -design dpml-3 -salt 0x1badf00d      # rerun one seeded schedule
//	dpml-verify -design flat -swaps 1200:0x1001:0x1002  # rerun one swap set
//
// The report is JSON (one entry per design x fault-spec combination);
// the exit status is non-zero if any explored schedule violated any
// invariant. Failures carry self-contained repro lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dpml/internal/explore"
	"dpml/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the JSON report to
// stdout (or -o) and errors to stderr, and returns the exit status (0
// every schedule passed, 1 an invariant failed, 2 a usage or scenario
// setup error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		design    = fs.String("design", "dpml-3", "design name (core.ParseDesign grammar), a comma-separated list, or 'all' (see internal/explore.Designs)")
		cluster   = fs.String("cluster", "A", "cluster profile (A..E)")
		nodes     = fs.Int("nodes", 4, "nodes in the job")
		ppn       = fs.Int("ppn", 4, "ranks per node")
		count     = fs.Int("count", 61, "elements per rank")
		dtype     = fs.String("dtype", "float32", "element type: float32|float64|int32|int64")
		opName    = fs.String("op", "sum", "reduction op: sum|prod|max|min")
		faultList = fs.String("faults", "", "semicolon-separated fault specs to explore under (each a faults.ParseSpec string; empty entry = healthy fabric)")
		faultSeed = fs.Uint64("fault-seed", 0, "seed for fault-plan instantiation")
		watchdog  = fs.Duration("watchdog", 0, "virtual-time deadline per schedule (0 = 1 virtual second)")
		schedules = fs.Int("schedules", 0, "seeded schedules per combination (beyond the canonical baseline)")
		seed      = fs.Uint64("explore-seed", 0, "exploration seed; per-schedule salts derive from it")
		saltList  = fs.String("salt", "", "comma-separated explicit salts (repro of seeded schedules); overrides -schedules")
		swapSpec  = fs.String("swaps", "", "comma-separated tiebreak transpositions at:rawA:rawB (repro of one systematic schedule)")
		sysMode   = fs.Bool("systematic", false, "enumerate tiebreak inversions at commutation points (DPOR-lite), <=16 ranks recommended")
		maxSched  = fs.Int("max-schedules", 0, "systematic schedule budget (0 = 192)")
		minDist   = fs.Int("min-distinct", 0, "fail unless the systematic pass visits at least this many distinct schedules")
		shards    = fs.Int("shards", 0, "kernel shards per schedule (0 = DPML_SHARDS env or 1); reports are identical for every value")
		jobs      = fs.Int("j", 0, "parallel schedules across host cores (0 = all cores); reports are identical for every value")
		out       = fs.String("o", "", "write the JSON report to file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "dpml-verify:", err)
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"shards", *shards}, {"schedules", *schedules}, {"max-schedules", *maxSched}, {"min-distinct", *minDist}} {
		if f.v < 0 {
			return fatal(fmt.Errorf("bad -%s %d", f.name, f.v))
		}
	}

	dt, ok := explore.DatatypeByName(*dtype)
	if !ok {
		return fatal(fmt.Errorf("unknown dtype %q", *dtype))
	}
	op, ok := explore.OpByName(*opName)
	if !ok {
		return fatal(fmt.Errorf("unknown op %q", *opName))
	}
	names := strings.Split(*design, ",")
	if *design == "all" {
		names = explore.Designs()
	}
	specs := strings.Split(*faultList, ";")
	salts, err := parseSalts(*saltList)
	if err != nil {
		return fatal(err)
	}
	swaps, err := parseSwaps(*swapSpec)
	if err != nil {
		return fatal(err)
	}

	opts := explore.Options{
		Schedules:    *schedules,
		Seed:         *seed,
		Salts:        salts,
		Swaps:        swaps,
		Systematic:   *sysMode,
		MaxSchedules: *maxSched,
		MinDistinct:  *minDist,
		Workers:      *jobs,
	}

	var reports []*explore.Report
	failed := false
	for _, name := range names {
		for _, spec := range specs {
			sc := explore.Scenario{
				Cluster:   *cluster,
				Nodes:     *nodes,
				PPN:       *ppn,
				Count:     *count,
				Dtype:     dt,
				Op:        op,
				Design:    name,
				Faults:    spec,
				FaultSeed: *faultSeed,
				Watchdog:  sim.Duration(*watchdog),
				Shards:    *shards,
			}
			rep, err := explore.Run(sc, opts)
			if err != nil {
				failed = true
				fmt.Fprintln(stderr, err)
			}
			if rep == nil {
				// Scenario setup error, not an invariant failure: stop
				// rather than repeat it for every combination.
				return 2
			}
			reports = append(reports, rep)
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		return fatal(err)
	}
	if failed {
		return 1
	}
	return 0
}

// parseSalts parses a comma-separated salt list (decimal or 0x hex).
func parseSalts(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -salt entry %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseSwaps parses at:rawA:rawB transposition triples.
func parseSwaps(s string) ([]sim.TieSwap, error) {
	if s == "" {
		return nil, nil
	}
	var out []sim.TieSwap
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("bad -swaps entry %q: want at:rawA:rawB", part)
		}
		at, err := strconv.ParseInt(f[0], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -swaps instant %q: %w", f[0], err)
		}
		a, err := strconv.ParseUint(f[1], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -swaps key %q: %w", f[1], err)
		}
		b, err := strconv.ParseUint(f[2], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -swaps key %q: %w", f[2], err)
		}
		out = append(out, sim.TieSwap{At: sim.Time(at), A: a, B: b})
	}
	return out, nil
}
