// Package topology describes the simulated HPC systems: node and socket
// structure, CPU and memory characteristics, and interconnect profiles.
// The four constructors ClusterA..ClusterD mirror the four evaluation
// platforms of the paper (Section 6.1). Parameter values are calibrated so
// the fabric model reproduces the communication trends of Figure 1, not
// the authors' absolute microseconds; see DESIGN.md for the rationale.
package topology

import (
	"fmt"

	"dpml/internal/sim"
)

// Cluster is a static description of a machine. It is pure data: the
// fabric and MPI layers interpret it.
type Cluster struct {
	Name string
	// Nodes is the number of compute nodes available.
	Nodes int
	// Sockets is the number of CPU sockets per node.
	Sockets int
	// CoresPerSocket is the number of usable cores per socket.
	CoresPerSocket int

	Net   NetProfile
	Mem   MemProfile
	CPU   CPUProfile
	Sharp SharpProfile
}

// CoresPerNode returns Sockets*CoresPerSocket.
func (c *Cluster) CoresPerNode() int { return c.Sockets * c.CoresPerSocket }

// Validate checks internal consistency and returns a descriptive error
// for the first problem found.
func (c *Cluster) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("topology: cluster has no name")
	case c.Nodes <= 0:
		return fmt.Errorf("topology: %s: Nodes = %d, want > 0", c.Name, c.Nodes)
	case c.Sockets <= 0:
		return fmt.Errorf("topology: %s: Sockets = %d, want > 0", c.Name, c.Sockets)
	case c.CoresPerSocket <= 0:
		return fmt.Errorf("topology: %s: CoresPerSocket = %d, want > 0", c.Name, c.CoresPerSocket)
	case c.Net.LinkBandwidth <= 0:
		return fmt.Errorf("topology: %s: LinkBandwidth must be positive", c.Name)
	case c.Net.PerFlowCap <= 0:
		return fmt.Errorf("topology: %s: PerFlowCap must be positive", c.Name)
	case c.Net.EagerThreshold < 0:
		return fmt.Errorf("topology: %s: EagerThreshold must be >= 0", c.Name)
	case c.Net.LeafRadix < 0:
		return fmt.Errorf("topology: %s: LeafRadix must be >= 0", c.Name)
	case c.Mem.CopyRate <= 0 || c.Mem.CrossSocketRate <= 0 || c.Mem.AggregateBW <= 0:
		return fmt.Errorf("topology: %s: memory rates must be positive", c.Name)
	case c.CPU.ReduceRate <= 0:
		return fmt.Errorf("topology: %s: ReduceRate must be positive", c.Name)
	}
	if c.Sharp.Available {
		switch {
		case c.Sharp.Radix < 2:
			return fmt.Errorf("topology: %s: SHArP radix %d, want >= 2", c.Name, c.Sharp.Radix)
		case c.Sharp.SwitchReduceRate <= 0:
			return fmt.Errorf("topology: %s: SHArP SwitchReduceRate must be positive", c.Name)
		case c.Sharp.MaxOutstanding <= 0:
			return fmt.Errorf("topology: %s: SHArP MaxOutstanding must be positive", c.Name)
		case c.Sharp.MaxGroups <= 0:
			return fmt.Errorf("topology: %s: SHArP MaxGroups must be positive", c.Name)
		}
	}
	return nil
}

func (c *Cluster) String() string {
	return fmt.Sprintf("%s (%d nodes x %ds x %dc)", c.Name, c.Nodes, c.Sockets, c.CoresPerSocket)
}

// Calibrated interconnect profiles. The shapes these must reproduce:
//
//   - InfiniBand EDR (Fig 1b): per-flow cap well below link capacity, so
//     relative throughput keeps scaling with pairs at every message size;
//     hardware offload keeps per-message CPU overheads low.
//   - Omni-Path (Fig 1c): very high message rate and low small-message
//     overhead (Zone A scales with pairs), but a single PSM stream can
//     nearly saturate the link, so large messages see no concurrency
//     benefit (Zone C flat at 1).
//   - KNL + Omni-Path (Fig 1d): same fabric driven by ~3x slower cores,
//     so per-message overheads triple and per-flow rates drop.

func infinibandEDR() NetProfile {
	return NetProfile{
		LinkBandwidth:    12.0e9, // ~100 Gb/s
		PerFlowCap:       1.1e9,  // per-QP effective rate in mbw pattern
		SenderOverhead:   400 * sim.Nanosecond,
		ReceiverOverhead: 300 * sim.Nanosecond,
		WireLatency:      900 * sim.Nanosecond,
		MsgGap:           7 * sim.Nanosecond, // ~150 M msg/s NIC rate
		EagerThreshold:   16 << 10,
		Oversubscription: 1,
		LeafRadix:        16, // matches the SHArP aggregation radix
	}
}

func omniPath100() NetProfile {
	return NetProfile{
		LinkBandwidth:    12.3e9, // 100 Gb/s
		PerFlowCap:       10.5e9, // one PSM stream nearly fills the link
		SenderOverhead:   650 * sim.Nanosecond,
		ReceiverOverhead: 450 * sim.Nanosecond,
		WireLatency:      1000 * sim.Nanosecond,
		MsgGap:           6 * sim.Nanosecond,
		EagerThreshold:   8 << 10,
		Oversubscription: 1,
		LeafRadix:        16, // 48-port leaf switches, 16 node-facing in the 2:1 split
	}
}

func omniPathKNL() NetProfile {
	p := omniPath100()
	p.SenderOverhead = 1900 * sim.Nanosecond // slow cores drive PSM
	p.ReceiverOverhead = 1300 * sim.Nanosecond
	p.PerFlowCap = 5.5e9
	p.Oversubscription = 1.25 // 5/4 fat-tree oversubscription
	return p
}

func xeonMemory() MemProfile {
	return MemProfile{
		CopyRate:         4.0e9,
		CrossSocketRate:  2.4e9,
		AggregateBW:      68e9,
		CopyStartup:      180 * sim.Nanosecond,
		CrossSocketExtra: 320 * sim.Nanosecond,
		FlagSync:         80 * sim.Nanosecond,
		FlagSyncCross:    170 * sim.Nanosecond,
	}
}

func knlMemory() MemProfile {
	return MemProfile{
		CopyRate:         1.6e9, // slow single-thread copies
		CrossSocketRate:  1.6e9, // single socket: no QPI penalty
		AggregateBW:      85e9,  // MCDRAM in cache mode
		CopyStartup:      420 * sim.Nanosecond,
		CrossSocketExtra: 0,
		FlagSync:         150 * sim.Nanosecond, // slow cores poll slowly
		FlagSyncCross:    150 * sim.Nanosecond, // single socket
	}
}

func sharpSwitchless() SharpProfile { return SharpProfile{} }

func sharpEDR() SharpProfile {
	return SharpProfile{
		Available:        true,
		Radix:            16,
		OpOverhead:       1900 * sim.Nanosecond,
		HopLatency:       300 * sim.Nanosecond,
		SwitchReduceRate: 0.13e9,
		MaxPayload:       8 << 10,
		MaxOutstanding:   2,
		MaxGroups:        8,
	}
}

// ClusterA is the paper's cluster A: 40 Haswell nodes (2 x 14 cores at
// 2.4 GHz), InfiniBand EDR with SHArP support.
func ClusterA() *Cluster {
	return &Cluster{
		Name:           "A-Xeon-IB-SHArP",
		Nodes:          40,
		Sockets:        2,
		CoresPerSocket: 14,
		Net:            infinibandEDR(),
		Mem:            xeonMemory(),
		CPU:            CPUProfile{ReduceRate: 5.0e9},
		Sharp:          sharpEDR(),
	}
}

// ClusterB is the paper's cluster B: 648 Broadwell nodes (2 x 14 cores at
// 2.4 GHz), InfiniBand EDR, no SHArP.
func ClusterB() *Cluster {
	return &Cluster{
		Name:           "B-Xeon-IB",
		Nodes:          648,
		Sockets:        2,
		CoresPerSocket: 14,
		Net:            infinibandEDR(),
		Mem:            xeonMemory(),
		CPU:            CPUProfile{ReduceRate: 5.2e9},
		Sharp:          sharpSwitchless(),
	}
}

// ClusterC is the paper's cluster C: 752 Haswell nodes (2 x 14 cores at
// 2.3 GHz), Intel Omni-Path.
func ClusterC() *Cluster {
	return &Cluster{
		Name:           "C-Xeon-OmniPath",
		Nodes:          752,
		Sockets:        2,
		CoresPerSocket: 14,
		Net:            omniPath100(),
		Mem:            xeonMemory(),
		CPU:            CPUProfile{ReduceRate: 4.8e9},
		Sharp:          sharpSwitchless(),
	}
}

// ClusterD is the paper's cluster D: 508 KNL nodes (68 cores, capped at
// 64 usable), Intel Omni-Path with 5/4 oversubscription.
func ClusterD() *Cluster {
	return &Cluster{
		Name:           "D-KNL-OmniPath",
		Nodes:          508,
		Sockets:        1,
		CoresPerSocket: 64,
		Net:            omniPathKNL(),
		Mem:            knlMemory(),
		CPU:            CPUProfile{ReduceRate: 1.5e9},
		Sharp:          sharpSwitchless(),
	}
}

// ClusterE is an extrapolated exascale system the paper could never
// measure: 4096 Xeon nodes (2 x 14 cores) on InfiniBand EDR behind a
// 2:1-oversubscribed fat tree of 32-port leaf switches. At 28 ppn a
// full-system job is 114,688 ranks — the 100k+-rank regime the sharded
// kernel and the partitioned fabric exist for. Calibration reuses the
// cluster-B interconnect and memory profiles; only the tree shape is new.
func ClusterE() *Cluster {
	net := infinibandEDR()
	net.Oversubscription = 2 // tapered core: half the leaf uplink capacity
	net.LeafRadix = 32
	return &Cluster{
		Name:           "E-Xeon-IB-exa",
		Nodes:          4096,
		Sockets:        2,
		CoresPerSocket: 14,
		Net:            net,
		Mem:            xeonMemory(),
		CPU:            CPUProfile{ReduceRate: 5.2e9},
		Sharp:          sharpSwitchless(),
	}
}

// ByName returns the cluster with the given short name ("A".."E", case
// sensitive), or nil if unknown. "E" is the extrapolated exascale system,
// not one of the paper's platforms.
func ByName(name string) *Cluster {
	switch name {
	case "A":
		return ClusterA()
	case "B":
		return ClusterB()
	case "C":
		return ClusterC()
	case "D":
		return ClusterD()
	case "E":
		return ClusterE()
	}
	return nil
}
