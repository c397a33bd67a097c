// Package dpml is the public API of the DPML reproduction: a simulated
// MPI runtime plus the paper's Data Partitioning-based Multi-Leader
// allreduce designs, baselines, cost model, applications, and benchmark
// harness.
//
// The typical flow is:
//
//	cluster := dpml.ClusterB().WithNodes(8)
//	eng, err := dpml.NewSystem(cluster, 8, 16)   // 8 nodes x 16 ppn
//	err = eng.W.Run(func(r *dpml.Rank) error {
//	    v := dpml.NewVector(dpml.Float64, 1024)
//	    // ... fill v ...
//	    return eng.Allreduce(r, dpml.DPML(8), dpml.Sum, v)
//	})
//
// Every allreduce strategy is a Spec, and Engine.Allreduce, a blocking
// MPI_Allreduce, is the engine's only collective. The selector designs
// (DesignMVAPICH2, DesignIntelMPI, DesignProposed) run, per message
// size, the design that library's decision table picks.
//
// Everything runs in deterministic virtual time: identical inputs give
// identical latencies, and the reduction arithmetic is really performed
// (use NewPhantom for timing-only sweeps at scale).
package dpml

import (
	"dpml/internal/bench"
	"dpml/internal/core"
	"dpml/internal/costmodel"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// Re-exported core types. These are aliases: values flow freely between
// the public API and the internal packages.
type (
	// Cluster describes a machine (nodes, sockets, fabric profile).
	Cluster = topology.Cluster
	// Job is a cluster plus a (nodes, ppn) process layout.
	Job = topology.Job
	// Placement locates one rank on the hardware.
	Placement = topology.Placement
	// World is one simulated job: fabric plus ranks.
	World = mpi.World
	// WorldConfig adjusts runtime behaviour (eager threshold).
	WorldConfig = mpi.Config
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Comm is a communicator.
	Comm = mpi.Comm
	// Request tracks a non-blocking operation.
	Request = mpi.Request
	// Vector is a typed message buffer (real or phantom).
	Vector = mpi.Vector
	// Op is a reduction operation.
	Op = mpi.Op
	// Datatype selects the element type of a Vector.
	Datatype = mpi.Datatype
	// Algorithm names a flat allreduce algorithm.
	Algorithm = mpi.Algorithm
	// Engine provides the paper's allreduce designs on one World.
	Engine = core.Engine
	// Spec selects a design configuration.
	Spec = core.Spec
	// Design names an allreduce strategy.
	Design = core.Design
	// CostParams is Section 5's analytic model.
	CostParams = costmodel.Params
	// Table is a reproduced figure.
	Table = bench.Table
	// Series is one curve of a Table.
	Series = bench.Series
	// Point is one measurement of a Series.
	Point = bench.Point
	// BenchOptions scales a figure run.
	BenchOptions = bench.Options
	// MBWConfig describes a multi-pair throughput measurement.
	MBWConfig = bench.MBWConfig
	// Time is an instant of virtual time (integer nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Datatypes.
const (
	Float32 = mpi.Float32
	Float64 = mpi.Float64
	Int32   = mpi.Int32
	Int64   = mpi.Int64
)

// Predefined reduction operations.
var (
	Sum  = mpi.Sum
	Prod = mpi.Prod
	Max  = mpi.Max
	Min  = mpi.Min
)

// NewUserOp builds a user-defined float64 reduction; its function must
// be commutative and associative.
var NewUserOp = mpi.NewUserOp

// Flat allreduce algorithms.
const (
	AlgRecursiveDoubling = mpi.AlgRecursiveDoubling
	AlgRing              = mpi.AlgRing
	AlgRabenseifner      = mpi.AlgRabenseifner
	AlgReduceBcast       = mpi.AlgReduceBcast
)

// Designs. The last three are selectors: per message size they run the
// spec a tuned library's decision table picks.
const (
	DesignFlat        = core.DesignFlat
	DesignDPML        = core.DesignDPML
	DesignSharpNode   = core.DesignSharpNode
	DesignSharpSocket = core.DesignSharpSocket
	DesignMVAPICH2    = core.DesignMVAPICH2
	DesignIntelMPI    = core.DesignIntelMPI
	DesignProposed    = core.DesignProposed
)

// Cluster constructors for the paper's four evaluation platforms.
var (
	// ClusterA: 40 Haswell nodes, InfiniBand EDR with SHArP.
	ClusterA = topology.ClusterA
	// ClusterB: 648 Broadwell nodes, InfiniBand EDR.
	ClusterB = topology.ClusterB
	// ClusterC: 752 Haswell nodes, Omni-Path.
	ClusterC = topology.ClusterC
	// ClusterD: 508 KNL nodes, Omni-Path.
	ClusterD = topology.ClusterD
	// ClusterByName maps "A".."D" to a cluster.
	ClusterByName = topology.ByName
	// Clusters returns all four paper clusters.
	Clusters = topology.All
)

// Job and world construction.
var (
	// NewJob validates a (cluster, nodes, ppn) layout.
	NewJob = topology.NewJob
	// NewWorld builds the simulated job.
	NewWorld = mpi.NewWorld
	// NewEngine prepares the DPML designs for a world.
	NewEngine = core.NewEngine
)

// Spec constructors.
var (
	// DPML configures the multi-leader design with l leaders.
	DPML = core.DPML
	// DPMLPipelined adds k-way pipelining to the inter-node phase.
	DPMLPipelined = core.DPMLPipelined
	// HostBased is the traditional single-leader hierarchy.
	HostBased = core.HostBased
	// Flat runs one flat algorithm on the world communicator.
	Flat = core.Flat
	// BestLeaders is the tuned per-size leader count (Section 6.4).
	BestLeaders = core.BestLeaders
	// Libraries lists the comparable baseline selectors.
	Libraries = core.Libraries
)

// Vector constructors.
var (
	// NewVector allocates a real (zeroed) vector.
	NewVector = mpi.NewVector
	// NewPhantom builds a size-only vector for timing sweeps.
	NewPhantom = mpi.NewPhantom
	// BlockPartition splits n elements into p near-equal blocks.
	BlockPartition = mpi.BlockPartition
)

// Benchmark harness.
var (
	// Figure regenerates one of the paper's figures.
	Figure = bench.Figure
	// FigureIDs lists the reproducible figures.
	FigureIDs = bench.FigureIDs
	// AllreduceLatency is the osu_allreduce-style measurement loop.
	AllreduceLatency = bench.AllreduceLatency
	// MultiPairThroughput is the osu_mbw_mr-style measurement loop.
	MultiPairThroughput = bench.MultiPairThroughput
	// TuneDPML runs the Section 6.4 empirical tuning sweep.
	TuneDPML = bench.TuneDPML
)

// TuneResult is the outcome of a TuneDPML sweep.
type TuneResult = bench.TuneResult

// CostModelFor derives Section 5's model coefficients from a cluster.
var CostModelFor = costmodel.FromCluster

// NewSystem builds a job, world, and engine in one call: the common
// entry point for applications.
func NewSystem(cluster *Cluster, nodes, ppn int) (*Engine, error) {
	job, err := NewJob(cluster, nodes, ppn)
	if err != nil {
		return nil, err
	}
	return NewEngine(NewWorld(job, WorldConfig{})), nil
}

// Tracing. WorldConfig.Trace takes a *TraceRecorder; the aliases make the
// recorder fully usable through the public API.
type (
	// TraceRecorder accumulates simulation events (see WorldConfig.Trace).
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded operation.
	TraceEvent = trace.Event
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
)

// Trace event kinds.
const (
	TraceSend       = trace.KindSend
	TraceRecv       = trace.KindRecv
	TraceShmCopy    = trace.KindShmCopy
	TraceCompute    = trace.KindCompute
	TraceCollective = trace.KindCollective
	// TracePhase events are phase spans: one named phase of a collective
	// on one rank (Label is the phase, e.g. "copy-in", "intra-reduce",
	// "inter-leader", "bcast-out" for DPML).
	TracePhase = trace.KindPhase
)

// NewTraceRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
var NewTraceRecorder = trace.New
