package main

// workloads.go holds the workload table and runs one pass of a workload:
// set-up through the public constructors, the timed section, then the
// check of every output against its reference.

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"

	"dpml/internal/bench"
	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// workload is one benchmark input. An allreduce workload builds one world
// per pass in which every rank issues colls back-to-back allreduces, each
// after the previous one returns (a closed loop of one client per rank).
// A table workload regenerates a results table per pass.
type workload struct {
	name string

	// The job: nodes x ppn ranks on cluster. A table workload times the
	// construction of one world of its figure's shape as its set-up.
	cluster    func() *topology.Cluster
	nodes, ppn int
	shards     int // kernel shards (Config.Shards)

	// Allreduce workloads.
	design core.Spec
	bytes  int // payload per rank
	colls  int // collectives per pass
	// real selects a float32 payload checked against a serial oracle;
	// otherwise the payload is phantom and the run is checked against the
	// golden virtual timeline named timeline in golden.json.
	real     bool
	timeline string

	// Table workloads: figure is regenerated with quick set as in
	// bench.Options and compared line by line with the file ref.
	figure string
	quick  bool
	ref    string
}

// workloads is the benchmark's table. Pass sizes keep one pass at a few
// seconds at most on a 2-core host, so a run of -seconds holds several
// passes and reports their median.
var workloads = []workload{
	{
		// The profile anchor: 10,240 procs in the kernel heap and ready
		// ring, and about 110k flows water-filled per collective. Serial
		// kernel, so the coordinator is bypassed; phantom, so no folds.
		name: "allreduce-10k", cluster: topology.ClusterD, nodes: 160, ppn: 64, shards: 1,
		design: core.DPML(16), bytes: 64 << 10, colls: 2, timeline: "dpml16-64KB-160x64",
	},
	{
		// The same job on two kernel shards: the one workload through the
		// coordinator's windows, barriers and outboxes. Sharding must not
		// change virtual time, so it shares the serial timeline.
		name: "allreduce-10k-shards2", cluster: topology.ClusterD, nodes: 160, ppn: 64, shards: 2,
		design: core.DPML(16), bytes: 64 << 10, colls: 2, timeline: "dpml16-64KB-160x64",
	},
	{
		// Latency-bound: SHArP offload sends no network messages, so the
		// water-fill is never entered, and context switches outnumber
		// events. Proc handoff dominates.
		name: "allreduce-64-sharp-256B", cluster: topology.ClusterA, nodes: 8, ppn: 8, shards: 1,
		design: core.Spec{Design: core.DesignSharpNode}, bytes: 256, colls: 4000, timeline: "sharp-node-256B-8x8",
	},
	{
		// Real folds and copies, which the phantom workloads skip: the
		// workload where the MPI runtime's copy and fold cost shows.
		name: "allreduce-64-real-1MB", cluster: topology.ClusterC, nodes: 8, ppn: 8, shards: 1,
		design: core.DPML(8), bytes: 1 << 20, colls: 15, real: true,
	},
	{
		// The user-facing path: regenerate a committed results table
		// through the figure harness and its sweep pool at -j 2.
		name: "fig5", cluster: topology.ClusterB, nodes: 64, ppn: 28, shards: 1,
		figure: "fig5", ref: "../results/fig5.txt",
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// refs is what a pass checks its outputs against.
type refs struct {
	golden map[string]timeline              // golden.json
	table  string                           // the committed table a table workload must reproduce
	sum    func(in []*mpi.Vector) []float32 // the serial oracle of a real-payload allreduce
}

//go:embed golden.json
var goldenJSON []byte

// loadRefs reads the references w is checked against. A table
// workload's ref path is relative to this directory.
func loadRefs(w workload) (refs, error) {
	r := refs{sum: serialSum}
	if err := json.Unmarshal(goldenJSON, &r.golden); err != nil {
		return r, fmt.Errorf("golden.json: %w", err)
	}
	if w.ref != "" {
		b, err := os.ReadFile(w.ref)
		if err != nil {
			return r, fmt.Errorf("%s: reference table: %w", w.name, err)
		}
		r.table = string(b)
	}
	return r, nil
}

// timeline fingerprints a phantom run's virtual time.
type timeline struct {
	Rank0   string `json:"rank0_fnv64a"` // FNV-1a over rank 0's clock in ns after each collective
	FinalNS int64  `json:"final_ns"`     // World.Now() after the run
}

func (w workload) goldenKey() string { return fmt.Sprintf("%s/%d", w.timeline, w.colls) }

func timelineOf(rank0 []sim.Time, final sim.Time) timeline {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range rank0 {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return timeline{Rank0: fmt.Sprintf("%016x", h.Sum64()), FinalNS: int64(final)}
}

// pass is what one pass measured.
type pass struct {
	setup, wall, cpu float64 // seconds: set-up, then the timed section's host wall and CPU time
	ops, failed      int
	// counters are the world's exact work counters; nil for a table
	// workload, whose worlds bench.Figure does not expose.
	counters map[string]float64
	timeline timeline // a phantom allreduce's virtual timeline
	// Go runtime activity over the timed section.
	gcCycles, allocBytes, mallocs, gcPauseS float64
}

func (w workload) pass(seed uint64, ref refs) (pass, error) {
	// Start every pass from a collected heap, so garbage from the
	// previous pass is not collected inside this one's timed section.
	runtime.GC()
	if w.figure != "" {
		return w.tablePass(ref)
	}
	return w.allreducePass(seed, ref)
}

// sampleStride spaces the result elements checked after each collective;
// the sample's offset moves with the collective index.
const sampleStride = 251

func (w workload) allreducePass(seed uint64, ref refs) (pass, error) {
	var p pass
	t0 := now()
	job, err := topology.NewJob(w.cluster(), w.nodes, w.ppn)
	if err != nil {
		return p, fmt.Errorf("%s: %w", w.name, err)
	}
	world := mpi.NewWorld(job, mpi.Config{Shards: w.shards, NetShards: 1})
	eng := core.NewEngine(world)
	n, elems := job.NumProcs(), w.bytes/4
	vecs := make([]*mpi.Vector, n)
	var inputs []*mpi.Vector
	var oracle []float32
	if w.real {
		inputs = make([]*mpi.Vector, n)
		for r := range vecs {
			inputs[r] = input(seed, r, elems)
			vecs[r] = mpi.NewVector(mpi.Float32, elems)
		}
		oracle = ref.sum(inputs)
	} else {
		for r := range vecs {
			vecs[r] = mpi.NewPhantom(mpi.Float32, elems)
		}
	}
	p.setup = now().Sub(t0).Seconds()

	// Rank bodies write only their own slots, so sharded runs stay
	// race-free.
	bad := make([][]int, n)            // per rank: collectives whose sampled result was wrong
	rank0 := make([]sim.Time, w.colls) // rank 0's clock after each collective
	var runErr error
	timed(&p, func() {
		runErr = world.Run(func(r *mpi.Rank) error {
			id := r.Rank()
			v := vecs[id]
			for c := 0; c < w.colls; c++ {
				if w.real {
					v.CopyFrom(inputs[id])
				}
				if err := eng.Allreduce(r, w.design, mpi.Sum, v); err != nil {
					return err
				}
				if w.real && !matches(v.Float32s(), oracle, c%sampleStride, sampleStride) {
					bad[id] = append(bad[id], c)
				}
				if id == 0 {
					rank0[c] = r.Now()
				}
			}
			return nil
		})
	})

	p.ops = w.colls
	switch {
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, runErr)
		p.failed = w.colls
	case w.real:
		failed := make([]bool, w.colls)
		for _, cs := range bad {
			for _, c := range cs {
				failed[c] = true
			}
		}
		// The last collective's result is checked in full on every rank.
		for _, v := range vecs {
			if !matches(v.Float32s(), oracle, 0, 1) {
				failed[w.colls-1] = true
			}
		}
		for _, f := range failed {
			if f {
				p.failed++
			}
		}
	default:
		p.timeline = timelineOf(rank0, world.Now())
		want, ok := ref.golden[w.goldenKey()]
		if !ok {
			fmt.Fprintf(os.Stderr, "%s: golden.json has no timeline %q (record it with go test -run TestGolden -update)\n", w.name, w.goldenKey())
		}
		if p.timeline != want {
			p.failed = w.colls
		}
	}
	p.counters = worldCounters(world, n*w.colls)
	return p, nil
}

func (w workload) tablePass(ref refs) (pass, error) {
	var p pass
	// bench.Figure builds its own worlds; set-up is the construction of
	// one world of the figure's shape, the cost each of its runs pays.
	t0 := now()
	job, err := topology.NewJob(w.cluster(), w.nodes, w.ppn)
	if err != nil {
		return p, fmt.Errorf("%s: %w", w.name, err)
	}
	core.NewEngine(mpi.NewWorld(job, mpi.Config{Shards: w.shards, NetShards: 1}))
	p.setup = now().Sub(t0).Seconds()

	// The options of results/README.md's regeneration command, at -j 2.
	opt := bench.Options{Quick: w.quick, Iters: 2, Warmup: 1, Jobs: 2}
	var out strings.Builder
	var figErr error
	timed(&p, func() {
		var tb *bench.Table
		if tb, figErr = bench.Figure(w.figure, opt); figErr == nil {
			tb.Render(&out)
			out.WriteString("\n") // dpml-bench separates tables with a blank line
		}
	})

	want := lines(ref.table)
	if figErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, figErr)
		p.ops, p.failed = len(want), len(want)
		return p, nil
	}
	got := lines(out.String())
	p.ops = max(len(got), len(want))
	for i := 0; i < p.ops; i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			p.failed++
		}
	}
	return p, nil
}

// lines splits s into lines that keep their newline, so a missing final
// newline still differs.
func lines(s string) []string {
	l := strings.SplitAfter(s, "\n")
	if l[len(l)-1] == "" {
		l = l[:len(l)-1]
	}
	return l
}

// timed runs fn as a pass's timed section.
func timed(p *pass, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := now()
	fn()
	p.wall = now().Sub(t0).Seconds()
	p.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	p.gcCycles = float64(m1.NumGC - m0.NumGC)
	p.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	p.mallocs = float64(m1.Mallocs - m0.Mallocs)
	p.gcPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports kilobytes
}

// worldCounterNames are the per-layer metrics worldCounters reads.
var worldCounterNames = []string{
	"sim.events", "sim.context_switches", "sim.heap_high_water",
	"coord.rounds", "coord.events_per_round",
	"flows.started", "flows.recomputes", "flows.fast_path_ratio",
	"net.messages", "net.bytes", "nic.injected",
	"mem.copies", "mem.bytes", "core.allreduce_calls",
}

// worldCounters reads a finished world's exact work counters.
func worldCounters(world *mpi.World, calls int) map[string]float64 {
	stats := world.SimStats()
	rounds := float64(world.Coordinator().Rounds())
	reg := world.Metrics()
	get := func(name string) float64 {
		v, _ := reg.Get(name)
		return v
	}
	c := map[string]float64{
		"sim.events":             float64(stats.Events),
		"sim.context_switches":   float64(stats.ContextSwitch),
		"sim.heap_high_water":    float64(stats.HeapHighWater),
		"coord.rounds":           rounds,
		"coord.events_per_round": 0,
		"flows.started":          get("flows.started"),
		"flows.recomputes":       get("flows.recomputes"),
		"flows.fast_path_ratio":  0,
		"net.messages":           get("net.messages"),
		"net.bytes":              get("net.bytes"),
		"nic.injected":           get("nic.injected"),
		"mem.copies":             get("mem.copies"),
		"mem.bytes":              get("mem.bytes"),
		"core.allreduce_calls":   float64(calls),
	}
	if rounds > 0 {
		c["coord.events_per_round"] = float64(stats.Events) / rounds
	}
	if done := get("flows.completed"); done > 0 {
		c["flows.fast_path_ratio"] = get("flows.fast_path") / done
	}
	return c
}

// input returns rank r's payload for seed: integers in [0, 16), so every
// sum is exact in float32 whatever order a design folds in.
func input(seed uint64, r, n int) *mpi.Vector {
	v := mpi.NewVector(mpi.Float32, n)
	f := v.Float32s()
	x := seed ^ uint64(r+1)*0x9e3779b97f4a7c15
	for i := 0; i < n; i += 16 {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := i; j < min(i+16, n); j++ {
			f[j] = float32(z & 15)
			z >>= 4
		}
	}
	return v
}

// serialSum is the oracle: the element-wise sum of every rank's input.
func serialSum(in []*mpi.Vector) []float32 {
	sum := make([]float32, in[0].Len())
	for _, v := range in {
		for i, x := range v.Float32s() {
			sum[i] += x
		}
	}
	return sum
}

// matches reports whether got is bit-identical to want at from,
// from+stride, ...
func matches(got, want []float32, from, stride int) bool {
	for i := from; i < len(want); i += stride {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
