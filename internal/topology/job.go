package topology

import "fmt"

// Job describes one run: a cluster, how many of its nodes participate,
// and how many MPI processes run per node (block placement, like the
// paper's full-subscription experiments).
type Job struct {
	Cluster   *Cluster
	NodesUsed int
	PPN       int
}

// NewJob validates and builds a job description.
func NewJob(c *Cluster, nodes, ppn int) (*Job, error) {
	if c == nil {
		return nil, fmt.Errorf("topology: nil cluster")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 || nodes > c.Nodes {
		return nil, fmt.Errorf("topology: job wants %d nodes, cluster %s has %d", nodes, c.Name, c.Nodes)
	}
	if ppn <= 0 || ppn > c.CoresPerNode() {
		return nil, fmt.Errorf("topology: job wants ppn=%d, cluster %s has %d cores/node", ppn, c.Name, c.CoresPerNode())
	}
	return &Job{Cluster: c, NodesUsed: nodes, PPN: ppn}, nil
}

// NumProcs returns the world size.
func (j *Job) NumProcs() int { return j.NodesUsed * j.PPN }

func (j *Job) String() string {
	return fmt.Sprintf("%s: %d nodes x %d ppn = %d procs", j.Cluster.Name, j.NodesUsed, j.PPN, j.NumProcs())
}

// Placement locates one rank on the hardware.
type Placement struct {
	Node      int // node index in [0, NodesUsed)
	LocalRank int // rank within the node in [0, PPN)
	Socket    int // socket index in [0, Sockets)
}

// Place maps a global rank to hardware using block ("bunch") placement:
// consecutive ranks fill a node before spilling to the next, and within a
// node consecutive local ranks fill socket 0 before socket 1, matching
// MVAPICH2's default CPU mapping.
func (j *Job) Place(rank int) Placement {
	if rank < 0 || rank >= j.NumProcs() {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, j.NumProcs()))
	}
	c := j.Cluster
	local := rank % j.PPN
	// Split the node's ppn across sockets as evenly as possible, earlier
	// sockets getting the remainder (block distribution).
	per := j.PPN / c.Sockets
	rem := j.PPN % c.Sockets
	socket, acc := 0, 0
	for s := 0; s < c.Sockets; s++ {
		n := per
		if s < rem {
			n++
		}
		if local < acc+n {
			socket = s
			break
		}
		acc += n
	}
	return Placement{
		Node:      rank / j.PPN,
		LocalRank: local,
		Socket:    socket,
	}
}
