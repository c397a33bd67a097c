// Command benchmark measures the dpml simulator from the outside. It
// builds simulated jobs only through the public constructors
// (topology.NewJob, mpi.NewWorld, core.NewEngine), runs allreduce
// collectives or regenerates a results table pass after pass for a fixed
// time, checks every output against a reference, and prints one result
// per workload.
//
// Usage, from this directory:
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//
// For each workload it prints two JSON lines: the run's context
// (workload, seed, host, passes), then the result, whose keys are
// correct, attempted, failed and metrics. -trace 1 replaces the
// end-to-end metrics with the per-layer ones. -workload all runs each
// workload in its own process, so peak RSS and GC state belong to one
// workload. README.md defines the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runInfo is the line printed before each result.
type runInfo struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	Passes       int    `json:"passes"`
	TracedPasses int    `json:"traced_passes"`
	Host         host   `json:"host"`
	Note         string `json:"note,omitempty"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func main() {
	name := flag.String("workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all to run each in its own process")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a profiled run instead of the end-to-end ones")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", ")))
	}
	ref, err := loadRefs(w)
	if err != nil {
		fatal(err)
	}
	res, plain, traced, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ref)
	if err != nil {
		fatal(err)
	}
	if *trace == 1 {
		for _, name := range endToEnd {
			delete(res.Metrics, name)
		}
	}
	info := runInfo{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Passes: plain, TracedPasses: traced,
		Host: host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Note: w.note(*trace == 1),
	}
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

// note states what a workload's result cannot show.
func (w workload) note(traced bool) string {
	switch {
	case w.real:
		return ""
	case w.figure == "":
		return "phantom payload: -seed changes no input"
	case !traced:
		return "the table has no seed-dependent input"
	}
	return "the table has no seed-dependent input; bench.Figure does not expose its worlds, so the world counters read 0"
}

// runAll runs every workload in a child process of this binary, relaying
// its output.
func runAll(seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed to run: %s", strings.Join(failed, ", "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
