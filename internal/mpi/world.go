// Package mpi implements an MPI-like runtime on top of the virtual-time
// simulator: ranks, communicators, datatypes, reduction operations,
// eager/rendezvous point-to-point messaging, non-blocking requests, and
// the standard collective algorithms (recursive doubling, ring,
// Rabenseifner, binomial trees, single-leader hierarchies) that the paper
// uses as building blocks and baselines.
//
// Every rank is a simulated process (sim.Proc). Data movement is charged
// to the fabric model and — when buffers are real rather than phantom —
// actually performed, so reduction results can be verified bit-for-bit.
//
// A world's simulation can be sharded across OS threads (Config.Shards):
// each node's ranks, memory channel, and NIC state live on the node's
// logical process, fabric-wide state (links, flows, SHArP) on the shared
// network LP, and a conservative time-window coordinator runs the shards
// in parallel. Results are bit-identical for every shard count.
package mpi

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"

	"dpml/internal/fabric"
	"dpml/internal/faults"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// Config adjusts runtime behaviour per World.
type Config struct {
	// Trace, when non-nil, records every message, copy, and compute
	// event (see the trace package).
	Trace *trace.Recorder
	// Jitter injects deterministic pseudo-random extra latency of up to
	// this much per inter-node message, modelling system noise. Zero
	// disables injection.
	Jitter sim.Duration
	// JitterSeed seeds the noise streams; runs with equal seeds are
	// identical. Each rank draws from its own splitmix64 stream (derived
	// from the seed and the rank), so the noise a message sees does not
	// depend on how the simulation is sharded.
	JitterSeed uint64
	// Faults, when non-nil and non-empty, installs the fault plan into
	// the world before the run starts: straggler windows, link
	// degradation, NIC throttling, SHArP outages (see the faults
	// package). Nil or empty is the healthy fabric, bit-for-bit
	// identical to a build without the fault layer. The plan must be
	// valid for this job's shape.
	Faults *faults.Plan
	// Watchdog, when positive, arms a virtual-time deadline: a run still
	// going at that instant aborts with a *sim.WatchdogError dumping
	// each blocked rank's wait reason and pending-request counts,
	// instead of simulating a wedged collective forever. Zero disables
	// it.
	Watchdog sim.Duration
	// Shards splits the simulation kernel across this many OS threads
	// (clamped to the node count; nodes are partitioned contiguously).
	// Zero uses the process default (the DPML_SHARDS environment
	// variable, else 1); 1 forces the serial kernel. Every shard count
	// produces bit-identical results — this knob trades memory and
	// synchronization overhead for wall-clock speed only.
	Shards int
	// Deprecated: ignored; the network fill is serial.
	NetShards int
	// Explore, when non-nil, installs a schedule-perturbation config on
	// the simulation kernel (see sim.Explore and internal/explore): event
	// tiebreaks are permuted per Salt/Swaps. Message matching is never
	// perturbed: it stays FIFO per (communicator, source, tag) key.
	// Nil is the canonical schedule, bit-identical to a build without
	// the exploration layer. Like Jitter, every perturbed run is still
	// deterministic and shard-count-invariant for a fixed config.
	Explore *sim.Explore
}

// defaultShards is the process-wide shard count used when Config.Shards
// is zero, read once from the DPML_SHARDS environment variable.
var defaultShards = func() int {
	if s := os.Getenv("DPML_SHARDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}()

// World is one job: the simulated cluster fabric plus one rank per
// process. Create it with NewWorld, then call Run exactly once. The
// world spans every LP: its mutable registry state is mutex-guarded
// (see mu), everything else is fixed before Run.
//
//dpml:owner shared
type World struct {
	Job   *topology.Job
	Flows *fabric.FlowNet // the network LP's flow engine (wire traffic)
	Net   *fabric.Network
	Mem   []*fabric.MemChannel // indexed by node
	Sharp *fabric.Sharp        // nil when the fabric has no SHArP

	coord *sim.Coordinator
	cfg   Config
	ranks []*Rank
	world *Comm
	rngs  []uint64     // per-rank jitter stream states
	strag [][]stragWin // per-rank straggler windows; nil without straggler faults
	pools []nodePool   // per-node free lists (see pool.go)
	empty *Vector      // the zero-length phantom Barrier exchanges; never written

	// mu guards nextCID: the engine builds communicators during the run
	// (genall's group tables, on first use), possibly on several shards
	// at once. Communicator ids only need to be unique — they never
	// influence timing or data, only message matching within a
	// communicator, whose members share the object.
	mu      sync.Mutex
	nextCID int
}

// lookahead returns the conservative cross-node latency bound for the
// cluster: no interaction between two nodes — wire message or SHArP
// notification — takes effect sooner than this after it is initiated.
func lookahead(c *topology.Cluster) sim.Duration {
	la := c.Net.WireLatency
	if c.Sharp.Available {
		if w := c.Sharp.WakeLatency(); w < la {
			la = w
		}
	}
	return la
}

// NewWorld builds the simulated job.
func NewWorld(job *topology.Job, cfg Config) *World {
	shards := cfg.Shards
	if shards == 0 {
		shards = defaultShards
	}
	coord := sim.NewCoordinator(job.NodesUsed, shards, lookahead(job.Cluster))
	// Exploration must be installed before any proc or event exists so
	// every key ever minted goes through the same permutation.
	coord.SetExplore(cfg.Explore)
	netK := coord.NetKernel()
	flows := fabric.NewFlowNet(netK)
	w := &World{
		coord: coord,
		Job:   job,
		Flows: flows,
		Net:   fabric.NewNetwork(coord, flows, job.Cluster, job.NodesUsed),
		cfg:   cfg,
	}
	w.Mem = make([]*fabric.MemChannel, job.NodesUsed)
	w.pools = make([]nodePool, job.NodesUsed)
	w.empty = NewPhantom(Int32, 0)
	for i := range w.Mem {
		w.Mem[i] = fabric.NewMemChannel(coord.KernelFor(i), job.Cluster, i)
	}
	if s, err := fabric.NewSharp(netK, job.Cluster); err == nil {
		w.Sharp = s
	}
	n := job.NumProcs()
	w.rngs = make([]uint64, n)
	for i := range w.rngs {
		w.rngs[i] = (cfg.JitterSeed+uint64(i))*2654435761 + 0x9e3779b97f4a7c15
	}
	cfg.Trace.Reserve(n)
	w.ranks = make([]*Rank, n)
	all := make([]int, n)
	for i := 0; i < n; i++ {
		w.ranks[i] = newRank(w, i)
		all[i] = i
	}
	w.world = w.NewComm(all)
	coord.SetDiagnostic(w.diagnostics)
	if cfg.Watchdog > 0 {
		coord.SetWatchdog(cfg.Watchdog)
	}
	if !cfg.Faults.Empty() {
		w.installFaults(cfg.Faults)
	}
	return w
}

// Coordinator returns the simulation's shard coordinator.
func (w *World) Coordinator() *sim.Coordinator { return w.coord }

// Now returns the simulation's current virtual time (after Run: the
// instant the last event fired, identical for every shard count).
func (w *World) Now() sim.Time { return w.coord.Now() }

// SimStats returns the kernel scheduler counters aggregated across all
// shards. Events is shard-invariant; ContextSwitch and HeapHighWater are
// host-side counters that depend on the shard count.
func (w *World) SimStats() sim.KernelStats { return w.coord.Stats() }

// CommWorld returns the communicator containing every rank.
func (w *World) CommWorld() *Comm { return w.world }

// Tracer returns the configured event recorder (nil when tracing is off).
func (w *World) Tracer() *trace.Recorder { return w.cfg.Trace }

// FaultPlan returns the installed fault plan, or nil on a healthy
// fabric: the arrival-aware designs' (perfect) arrival predictor.
func (w *World) FaultPlan() *faults.Plan {
	if w.cfg.Faults.Empty() {
		return nil
	}
	return w.cfg.Faults
}

// jitter returns the sending rank's next pseudo-random extra latency in
// [0, Jitter] (splitmix64). Each rank owns its stream and only consumes
// it from its own simulation context, in an order the shard count cannot
// change — so jittered runs are bit-identical under any sharding.
func (r *Rank) jitter() sim.Duration {
	w := r.w
	if w.cfg.Jitter <= 0 {
		return 0
	}
	w.rngs[r.rank] += 0x9e3779b97f4a7c15
	z := w.rngs[r.rank]
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return sim.Duration(z % uint64(w.cfg.Jitter+1))
}

// Run spawns one simulated process per rank executing main and drives the
// simulation to completion. It returns the kernel's error (deadlock,
// panic) or the joined errors returned by the rank bodies.
func (w *World) Run(main func(*Rank) error) error {
	errs := make([]error, len(w.ranks))
	for _, rk := range w.ranks {
		rk := rk
		rk.k.SpawnOn(rk.place.Node, fmt.Sprintf("rank%d", rk.rank), func(p *sim.Proc) {
			rk.proc = p
			errs[rk.rank] = main(rk)
		})
	}
	if err := w.coord.Run(); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// Rank is one MPI process; all of its state belongs to the node LP the
// process is placed on.
//
//dpml:owner node
type Rank struct {
	w     *World
	rank  int
	place topology.Placement
	k     *sim.Kernel // the kernel owning this rank's node LP
	proc  *sim.Proc
	ep    *fabric.Endpoint // this process's network attachment

	// Message matching state (only ever touched in this node's
	// simulation context).
	unexpected fifo[*envelope]
	posted     fifo[*Request]
	x          *exchange    // requests and the step machine, built with the first request (see exchange)
	work       *trace.Event // the Compute or shared-memory copy armed last, kept only when tracing (see EndWork)
}

func newRank(w *World, i int) *Rank {
	place := w.Job.Place(i)
	return &Rank{
		w:     w,
		rank:  i,
		place: place,
		k:     w.coord.KernelFor(place.Node),
		ep:    w.Net.Endpoint(place.Node),
	}
}

// Rank returns the global rank number.
func (r *Rank) Rank() int { return r.rank }

// Place returns the rank's hardware placement.
func (r *Rank) Place() topology.Placement { return r.place }

// Proc returns the underlying simulated process (valid inside Run).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute blocks the rank for the time one core needs to stream a
// reduction over bytes of input (the paper's c per byte).
func (r *Rank) Compute(bytes int) {
	if !r.ArmCompute(bytes) {
		r.proc.Park()
	}
	r.EndWork()
}

// ArmCompute is Compute's arm form (see sim.Proc.Park): it arms the
// rank's proc to park until the compute time has elapsed, and the
// caller calls EndWork once the proc runs again. It reports true, arming
// nothing, only for zero-byte work, which takes no time.
func (r *Rank) ArmCompute(bytes int) bool {
	if bytes <= 0 {
		return true
	}
	r.startWork(trace.KindCompute, "", bytes)
	r.proc.ArmSleep(r.w.stretch(r, sim.TransferTime(int64(bytes), r.w.Job.Cluster.CPU.ReduceRate)))
	return false
}

// Reduce applies op to fold src into dst, charging the compute cost.
func (r *Rank) Reduce(op *Op, dst, src *Vector) {
	r.Compute(dst.Bytes())
	op.Apply(dst, src)
}

// ArmMemCopy arms the rank's proc to park for one shared-memory copy of
// bytes on its node (startup plus streaming; cross-socket copies cost
// more), even an empty copy's startup, and the caller calls EndWork
// once the proc runs again.
func (r *Rank) ArmMemCopy(crossSocket bool, bytes int) {
	label := "intra-socket"
	if crossSocket {
		label = "cross-socket"
	}
	r.startWork(trace.KindShmCopy, label, bytes)
	r.w.Mem[r.place.Node].ArmCopy(r.proc, crossSocket, int64(bytes))
}

// startWork notes the start of a Compute or copy for EndWork. An
// untraced rank notes nothing, so its Rank stays small.
func (r *Rank) startWork(kind trace.Kind, label string, bytes int) {
	if r.w.cfg.Trace == nil {
		return
	}
	if r.work == nil {
		r.work = &trace.Event{}
	}
	*r.work = trace.Event{Rank: r.rank, Kind: kind, Label: label, Start: r.proc.Now(), Bytes: bytes}
}

// EndWork records the Compute or copy that the last ArmCompute or
// ArmMemCopy started, which has now ended, as a trace event.
func (r *Rank) EndWork() {
	if r.work == nil || r.work.Kind == "" {
		return
	}
	ev := *r.work
	r.work.Kind = ""
	ev.End = r.proc.Now()
	r.w.cfg.Trace.Add(ev)
}
