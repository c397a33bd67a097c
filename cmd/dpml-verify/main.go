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
//	dpml-verify -designs all -faults ';all@0.7'      # whole design/fault matrix
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
	"os"
	"strconv"
	"strings"

	"dpml/internal/explore"
	"dpml/internal/sim"
)

func main() {
	var (
		designs   = flag.String("designs", "", "comma-separated design names (core.ParseDesign grammar), or 'all' (see internal/explore.Designs)")
		design    = flag.String("design", "dpml-3", "single design to explore when -designs is empty")
		cluster   = flag.String("cluster", "A", "cluster profile (A..E)")
		nodes     = flag.Int("nodes", 4, "nodes in the job")
		ppn       = flag.Int("ppn", 4, "ranks per node")
		count     = flag.Int("count", 61, "elements per rank")
		dtype     = flag.String("dtype", "float32", "element type: float32|float64|int32|int64")
		opName    = flag.String("op", "sum", "reduction op: sum|prod|max|min")
		faultList = flag.String("faults", "", "semicolon-separated fault specs to explore under (each a faults.ParseSpec string; empty entry = healthy fabric)")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for fault-plan instantiation")
		watchdog  = flag.Duration("watchdog", 0, "virtual-time deadline per schedule (0 = 1 virtual second)")
		schedules = flag.Int("schedules", 0, "seeded schedules per combination (beyond the canonical baseline)")
		seed      = flag.Uint64("explore-seed", 0, "exploration seed; per-schedule salts derive from it")
		saltList  = flag.String("salt", "", "comma-separated explicit salts (repro of seeded schedules); overrides -schedules")
		swapSpec  = flag.String("swaps", "", "comma-separated tiebreak transpositions at:rawA:rawB (repro of one systematic schedule)")
		sysMode   = flag.Bool("systematic", false, "enumerate tiebreak inversions at commutation points (DPOR-lite), <=16 ranks recommended")
		maxSched  = flag.Int("max-schedules", 0, "systematic schedule budget (0 = 192)")
		minDist   = flag.Int("min-distinct", 0, "fail unless the systematic pass visits at least this many distinct schedules")
		shards    = flag.Int("shards", 0, "kernel shards per schedule (0 = DPML_SHARDS env or 1); reports are identical for every value")
		jobs      = flag.Int("j", 0, "parallel schedules across host cores (0 = all cores); reports are identical for every value")
		out       = flag.String("o", "", "write the JSON report to file instead of stdout")
	)
	flag.Parse()

	dt, ok := explore.DatatypeByName(*dtype)
	if !ok {
		fatal(fmt.Errorf("unknown dtype %q", *dtype))
	}
	op, ok := explore.OpByName(*opName)
	if !ok {
		fatal(fmt.Errorf("unknown op %q", *opName))
	}
	names := designNames(*designs, *design)
	specs := strings.Split(*faultList, ";")
	salts, err := parseSalts(*saltList)
	if err != nil {
		fatal(err)
	}
	swaps, err := parseSwaps(*swapSpec)
	if err != nil {
		fatal(err)
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
		for _, fs := range specs {
			sc := explore.Scenario{
				Cluster:   *cluster,
				Nodes:     *nodes,
				PPN:       *ppn,
				Count:     *count,
				Dtype:     dt,
				Op:        op,
				Design:    name,
				Faults:    fs,
				FaultSeed: *faultSeed,
				Watchdog:  sim.Duration(*watchdog),
				Shards:    *shards,
			}
			rep, err := explore.Run(sc, opts)
			if err != nil {
				failed = true
				fmt.Fprintln(os.Stderr, err)
			}
			if rep != nil {
				reports = append(reports, rep)
			}
			if rep == nil && err != nil {
				// Scenario setup error, not an invariant failure: stop
				// rather than repeat it for every combination.
				os.Exit(2)
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// designNames resolves -designs/-design into the list to explore.
func designNames(list, single string) []string {
	if list == "" {
		return []string{single}
	}
	if list == "all" {
		return explore.Designs()
	}
	return strings.Split(list, ",")
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpml-verify:", err)
	os.Exit(2)
}
