package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperClustersValidate(t *testing.T) {
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestPaperClusterShapes(t *testing.T) {
	a, b, c, d := ClusterA(), ClusterB(), ClusterC(), ClusterD()
	if a.CoresPerNode() != 28 || b.CoresPerNode() != 28 || c.CoresPerNode() != 28 {
		t.Error("Xeon clusters must have 28 cores/node (2x14)")
	}
	if d.CoresPerNode() != 64 {
		t.Errorf("KNL cluster has %d cores/node, want 64", d.CoresPerNode())
	}
	if !a.Sharp.Available {
		t.Error("cluster A must support SHArP")
	}
	for _, cl := range []*Cluster{b, c, d} {
		if cl.Sharp.Available {
			t.Errorf("%s must not support SHArP", cl.Name)
		}
	}
	if a.Nodes != 40 || b.Nodes != 648 || c.Nodes != 752 || d.Nodes != 508 {
		t.Error("node counts do not match Section 6.1")
	}
	if d.Net.Oversubscription != 1.25 {
		t.Errorf("cluster D oversubscription %v, want 1.25 (5/4)", d.Net.Oversubscription)
	}
	// Interconnect character: IB must gain from concurrency at large
	// sizes (per-flow cap well below link); Omni-Path must not.
	if a.Net.PerFlowCap > a.Net.LinkBandwidth/4 {
		t.Error("IB per-flow cap too close to link bandwidth; Fig 1b shape breaks")
	}
	if c.Net.PerFlowCap < c.Net.LinkBandwidth/2 {
		t.Error("Omni-Path per-flow cap too low; Fig 1c Zone C shape breaks")
	}
	// KNL must have noticeably slower cores and higher overheads.
	if d.CPU.ReduceRate >= c.CPU.ReduceRate/2 {
		t.Error("KNL cores should be well below half Xeon reduce rate")
	}
	if d.Net.SenderOverhead <= c.Net.SenderOverhead {
		t.Error("KNL per-message overhead must exceed Xeon's")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D"} {
		c := ByName(name)
		if c == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if !strings.HasPrefix(c.Name, name+"-") {
			t.Errorf("ByName(%q) returned %s", name, c.Name)
		}
	}
	if ByName("Z") != nil || ByName("a") != nil {
		t.Error("unknown names must return nil")
	}
}

func TestValidateCatchesBadClusters(t *testing.T) {
	bad := []func(*Cluster){
		func(c *Cluster) { c.Name = "" },
		func(c *Cluster) { c.Nodes = 0 },
		func(c *Cluster) { c.Sockets = -1 },
		func(c *Cluster) { c.CoresPerSocket = 0 },
		func(c *Cluster) { c.Net.LinkBandwidth = 0 },
		func(c *Cluster) { c.Net.PerFlowCap = -1 },
		func(c *Cluster) { c.Net.EagerThreshold = -1 },
		func(c *Cluster) { c.Mem.CopyRate = 0 },
		func(c *Cluster) { c.Mem.AggregateBW = 0 },
		func(c *Cluster) { c.CPU.ReduceRate = 0 },
		func(c *Cluster) { c.Sharp.Radix = 1 },
		func(c *Cluster) { c.Sharp.MaxOutstanding = 0 },
		func(c *Cluster) { c.Sharp.MaxGroups = 0 },
		func(c *Cluster) { c.Sharp.SwitchReduceRate = 0 },
	}
	for i, mutate := range bad {
		c := ClusterA() // has SHArP, so SHArP mutations are exercised
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a broken cluster", i)
		}
	}
}

func TestJobValidation(t *testing.T) {
	c := ClusterA()
	if _, err := NewJob(nil, 1, 1); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := NewJob(c, 0, 1); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := NewJob(c, 41, 1); err == nil {
		t.Error("too many nodes accepted")
	}
	if _, err := NewJob(c, 1, 0); err == nil {
		t.Error("ppn=0 accepted")
	}
	if _, err := NewJob(c, 1, 29); err == nil {
		t.Error("ppn beyond cores accepted")
	}
	j, err := NewJob(c, 16, 28)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumProcs() != 448 {
		t.Fatalf("NumProcs = %d, want 448 (paper Fig 4)", j.NumProcs())
	}
}

func TestPlacementBlockMapping(t *testing.T) {
	j := mustJob(t, ClusterA(), 4, 28)
	// Rank 0: node 0, local 0, socket 0. Rank 27: node 0, local 27,
	// socket 1. Rank 28: node 1.
	p := j.Place(0)
	if p.Node != 0 || p.LocalRank != 0 || p.Socket != 0 {
		t.Errorf("rank 0 placed %+v", p)
	}
	p = j.Place(13)
	if p.Socket != 0 {
		t.Errorf("rank 13 on socket %d, want 0 (14 per socket)", p.Socket)
	}
	p = j.Place(14)
	if p.Socket != 1 {
		t.Errorf("rank 14 on socket %d, want 1", p.Socket)
	}
	p = j.Place(27)
	if p.Node != 0 || p.Socket != 1 {
		t.Errorf("rank 27 placed %+v", p)
	}
	p = j.Place(28)
	if p.Node != 1 || p.LocalRank != 0 || p.Socket != 0 {
		t.Errorf("rank 28 placed %+v", p)
	}
}

func TestPlacementOddPPN(t *testing.T) {
	// ppn=7 over 2 sockets: socket 0 gets 4 (remainder), socket 1 gets 3.
	j := mustJob(t, ClusterA(), 2, 7)
	wantSocket := []int{0, 0, 0, 0, 1, 1, 1}
	for local, want := range wantSocket {
		if got := j.Place(local).Socket; got != want {
			t.Errorf("local rank %d on socket %d, want %d", local, got, want)
		}
	}
}

func TestPlacementSingleSocketKNL(t *testing.T) {
	j := mustJob(t, ClusterD(), 2, 64)
	for r := 0; r < j.NumProcs(); r++ {
		if s := j.Place(r).Socket; s != 0 {
			t.Fatalf("KNL rank %d on socket %d, want 0", r, s)
		}
	}
}

func TestPlaceNodeAndSameNode(t *testing.T) {
	j := mustJob(t, ClusterB(), 3, 4)
	for i, r := range []int{4, 5, 6, 7} {
		if pl := j.Place(r); pl.Node != 1 || pl.LocalRank != i {
			t.Fatalf("Place(%d) = node %d local %d, want node 1 local %d", r, pl.Node, pl.LocalRank, i)
		}
	}
	if j.Place(0).Socket != j.Place(1).Socket {
		t.Error("ranks 0,1 share socket 0")
	}
}

func TestPlaceCrossSocket(t *testing.T) {
	j := mustJob(t, ClusterA(), 1, 28)
	if j.Place(0).Socket == j.Place(14).Socket {
		t.Error("ranks 0 and 14 are on different sockets at ppn=28")
	}
	if j.Place(14).Socket != 1 || j.Place(27).Socket != 1 {
		t.Error("ranks 14 and 27 both sit on socket 1")
	}
}

func TestPlacementProperties(t *testing.T) {
	// Property: every rank places onto valid coordinates, placements
	// partition evenly per node, and sockets are monotone in local rank.
	f := func(nodesSeed, ppnSeed uint8) bool {
		c := ClusterC()
		nodes := 1 + int(nodesSeed)%8
		ppn := 1 + int(ppnSeed)%c.CoresPerNode()
		j := mustJob(t, c, nodes, ppn)
		prevSocket := -1
		for r := 0; r < j.NumProcs(); r++ {
			p := j.Place(r)
			if p.Node != r/ppn || p.LocalRank != r%ppn {
				return false
			}
			if p.Socket < 0 || p.Socket >= c.Sockets {
				return false
			}
			if p.LocalRank == 0 {
				prevSocket = 0
			}
			if p.Socket < prevSocket {
				return false // sockets must be non-decreasing within node
			}
			prevSocket = p.Socket
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceOutOfRangePanics(t *testing.T) {
	j := mustJob(t, ClusterA(), 1, 4)
	for _, r := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Place(%d) did not panic", r)
				}
			}()
			j.Place(r)
		}()
	}
}

// mustJob is NewJob for shapes a test knows to be valid.
func mustJob(t *testing.T, c *Cluster, nodes, ppn int) *Job {
	t.Helper()
	j, err := NewJob(c, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
