package main

// measure.go runs passes of one workload for a time budget and reduces
// them to the metrics the benchmark prints.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// profileHz is the CPU-profile sampling rate asked for in a traced run,
// raised from runtime/pprof's 100 Hz so every layer above a 2% share
// collects at least 100 samples. The kernel delivers at most one sample
// per scheduler tick (250 Hz on a CONFIG_HZ=250 kernel), so samples give
// each layer's share and getrusage gives the seconds.
const profileHz = 1000

// units declares every metric the benchmark prints; BENCHMARK.json
// declares the same names and units.
var units = map[string]string{
	// End to end.
	"setup_s":     "s",
	"wall_s":      "s",
	"coll_ms":     "ms",
	"cpu_s":       "s",
	"peak_rss_mb": "MB",

	// Per layer: exact work counters of one pass.
	"sim.events":             "count",
	"sim.context_switches":   "count",
	"sim.heap_high_water":    "count",
	"coord.rounds":           "count",
	"coord.events_per_round": "count",
	"flows.started":          "count",
	"flows.recomputes":       "count",
	"flows.fast_path_ratio":  "ratio",
	"net.messages":           "count",
	"net.bytes":              "bytes",
	"nic.injected":           "count",
	"mem.copies":             "count",
	"mem.bytes":              "bytes",
	"core.allreduce_calls":   "count",
	// Per layer: host and Go runtime, per pass.
	"host.parallelism":     "ratio",
	"go.gc_cycles":         "count",
	"go.alloc_bytes":       "bytes",
	"go.mallocs":           "count",
	"go.gc_pause_s":        "s",
	"go.goroutines_leaked": "count",
	// Per layer: profile-attributed CPU seconds per pass.
	"layer.sim.cpu_s":            "s",
	"layer.sim.runtime_cpu_s":    "s",
	"layer.coord.cpu_s":          "s",
	"layer.fabric.cpu_s":         "s",
	"layer.fabric.runtime_cpu_s": "s",
	"layer.mpi.cpu_s":            "s",
	"layer.mpi.runtime_cpu_s":    "s",
	"layer.core.cpu_s":           "s",
	"layer.bench.cpu_s":          "s",
	"layer.benchmark.cpu_s":      "s",
	"layer.gc.cpu_s":             "s",
	"trace.samples":              "count",
	"trace.overhead":             "ratio",
}

// runtimeLayers are the layers whose runtime-leaf seconds are reported.
var runtimeLayers = map[string]bool{"sim": true, "fabric": true, "mpi": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// endToEnd names the metrics a user of the simulator sees; every other
// declared metric is per layer.
var endToEnd = []string{"setup_s", "wall_s", "coll_ms", "cpu_s", "peak_rss_mb"}

// measure runs passes of w until budget is spent and reports the
// end-to-end metrics of the untraced passes. Traced, it spends the first
// quarter of the budget on untraced passes (work counters, Go runtime
// activity, the overhead baseline) and the rest on passes under the CPU
// profiler, and adds the per-layer metrics. It returns the number of
// passes of each kind.
func measure(w workload, seed uint64, budget time.Duration, traced bool, ref refs) (res result, plainN, tracedN int, err error) {
	res.Metrics = map[string]metric{}
	goroutines := runtime.NumGoroutine()
	start := now()
	untracedEnd := start.Add(budget)
	if traced {
		untracedEnd = start.Add(budget / 4)
	}
	plain, err := runPasses(w, seed, ref, untracedEnd)
	if err != nil {
		return res, 0, 0, err
	}
	var prof []pass
	var ls layerSamples
	var profCPU float64 // process CPU seconds while the profiler ran
	if traced {
		var buf bytes.Buffer
		// StartCPUProfile sets 100 Hz again after this and prints that the
		// rate is already set; the profile keeps profileHz.
		runtime.SetCPUProfileRate(profileHz)
		c0 := cpuSeconds()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return res, 0, 0, fmt.Errorf("cpu profile: %w", err)
		}
		prof, err = runPasses(w, seed, ref, start.Add(budget))
		pprof.StopCPUProfile()
		profCPU = cpuSeconds() - c0
		if err != nil {
			return res, 0, 0, err
		}
		if ls, err = attribute(buf.Bytes()); err != nil {
			return res, 0, 0, err
		}
	}
	for _, p := range append(plain, prof...) {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0

	med := func(ps []pass, f func(pass) float64) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return median(v)
	}
	res.put("setup_s", med(plain, func(p pass) float64 { return p.setup }))
	res.put("wall_s", med(plain, func(p pass) float64 { return p.wall }))
	res.put("coll_ms", med(plain, func(p pass) float64 { return 1000 * p.wall / float64(p.ops) }))
	res.put("cpu_s", med(plain, func(p pass) float64 { return p.cpu }))
	res.put("peak_rss_mb", peakRSSMB())
	if !traced {
		return res, len(plain), 0, nil
	}

	// Every pass of a deterministic simulation does the same work, so
	// the counters of any one pass stand for all. A table workload has
	// none and reports them as 0.
	for _, name := range worldCounterNames {
		res.put(name, plain[len(plain)-1].counters[name])
	}
	res.put("host.parallelism", med(plain, func(p pass) float64 { return p.cpu / p.wall }))
	res.put("go.gc_cycles", med(plain, func(p pass) float64 { return p.gcCycles }))
	res.put("go.alloc_bytes", med(plain, func(p pass) float64 { return p.allocBytes }))
	res.put("go.mallocs", med(plain, func(p pass) float64 { return p.mallocs }))
	res.put("go.gc_pause_s", med(plain, func(p pass) float64 { return p.gcPauseS }))
	res.put("go.goroutines_leaked", float64(leakedGoroutines(goroutines)))
	// Each layer's share of the samples, in CPU seconds per profiled pass.
	perSample := 0.0
	if ls.total > 0 {
		perSample = profCPU / float64(len(prof)) / float64(ls.total)
	}
	for _, l := range layers {
		res.put("layer."+l+".cpu_s", float64(ls.all[l])*perSample)
		if runtimeLayers[l] {
			res.put("layer."+l+".runtime_cpu_s", float64(ls.runtime[l])*perSample)
		}
	}
	res.put("trace.samples", float64(ls.total))
	wall := func(p pass) float64 { return p.wall }
	res.put("trace.overhead", med(prof, wall)/med(plain, wall)-1)
	return res, len(plain), len(prof), nil
}

// runPasses runs passes of w until the next one would likely end after
// deadline, and at least one.
func runPasses(w workload, seed uint64, ref refs, deadline time.Time) ([]pass, error) {
	var ps []pass
	for {
		t0 := now()
		p, err := w.pass(seed, ref)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		if t := now(); t.Add(t.Sub(t0)).After(deadline) {
			return ps, nil
		}
	}
}

// leakedGoroutines is how many goroutines outlive the passes. A finished
// world's procs hand control back before their goroutines return, so it
// yields to them for a while first.
func leakedGoroutines(before int) int {
	for i := 0; i < 100000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	return max(0, runtime.NumGoroutine()-before)
}

// now reads the host clock. The benchmark times the simulator from
// outside; no value read here reaches a simulation.
func now() time.Time {
	return time.Now() //dpml:allow walltime -- the benchmark measures host time around simulations, never inside one
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
