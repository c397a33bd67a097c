// Package dpml is the public API of the DPML reproduction: a simulated
// MPI runtime plus the paper's Data Partitioning-based Multi-Leader
// allreduce designs, baselines, tuning sweep and applications.
//
// The typical flow is:
//
//	eng, err := dpml.NewSystem(dpml.ClusterB(), 8, 16) // 8 nodes x 16 ppn
//	err = eng.W.Run(func(r *dpml.Rank) error {
//	    v := dpml.NewVector(dpml.Float64, 1024)
//	    // ... fill v ...
//	    return eng.Allreduce(r, dpml.DPML(8), dpml.Sum, v)
//	})
//
// Every allreduce strategy is a Spec, and Engine.Allreduce, a blocking
// MPI_Allreduce, is the engine's only collective. The selector designs
// (Libraries) run, per message size, the design that library's decision
// table picks.
//
// Everything runs in deterministic virtual time: identical inputs give
// identical latencies, and the reduction arithmetic is really performed.
package dpml

import (
	"dpml/internal/bench"
	"dpml/internal/core"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
)

// Re-exported core types. These are aliases: values flow freely between
// the public API and the internal packages.
type (
	// Cluster describes a machine (nodes, sockets, fabric profile).
	Cluster = topology.Cluster
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Engine provides the paper's allreduce designs on one simulated job.
	Engine = core.Engine
	// Spec selects a design configuration.
	Spec = core.Spec
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Float64 selects float64 vector elements.
const Float64 = mpi.Float64

// Sum is the predefined summation reduction.
var Sum = mpi.Sum

// Designs. The last two are selectors: per message size they run the
// spec a tuned library's decision table picks.
const (
	DesignSharpNode   = core.DesignSharpNode
	DesignSharpSocket = core.DesignSharpSocket
	DesignMVAPICH2    = core.DesignMVAPICH2
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
)

// Spec constructors.
var (
	// DPML configures the multi-leader design with l leaders.
	DPML = core.DPML
	// HostBased is the traditional single-leader hierarchy.
	HostBased = core.HostBased
	// Libraries lists the comparable baseline selectors.
	Libraries = core.Libraries
)

// NewVector allocates a real (zeroed) vector.
var NewVector = mpi.NewVector

// TuneDPML runs the Section 6.4 empirical tuning sweep.
var TuneDPML = bench.TuneDPML

// NewSystem builds a job, world, and engine in one call: the common
// entry point for applications.
func NewSystem(cluster *Cluster, nodes, ppn int) (*Engine, error) {
	job, err := topology.NewJob(cluster, nodes, ppn)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(mpi.NewWorld(job, mpi.Config{})), nil
}
