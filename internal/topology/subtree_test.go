package topology

import (
	"testing"
	"testing/quick"
)

func TestLeafSubtreesShapes(t *testing.T) {
	cases := []struct {
		nodes, radix, count int
	}{
		{1, 16, 1},
		{16, 16, 1}, // radix >= nodes: single subtree
		{17, 16, 2}, // one full leaf plus a remainder
		{40, 16, 3}, // cluster A full
		{160, 16, 10},
		{4096, 32, 128}, // cluster E full
		{8, 0, 1},       // topology unknown
		{8, -3, 1},      // defensive: negative radix
	}
	for _, tc := range cases {
		m := LeafSubtrees(tc.nodes, tc.radix)
		if m.Count != tc.count {
			t.Errorf("LeafSubtrees(%d, %d).Count = %d, want %d", tc.nodes, tc.radix, m.Count, tc.count)
		}
		if len(m.Of) != tc.nodes {
			t.Errorf("LeafSubtrees(%d, %d): len(Of) = %d", tc.nodes, tc.radix, len(m.Of))
		}
	}
}

func TestLeafSubtreesProperties(t *testing.T) {
	// Properties: ids are dense and non-decreasing (contiguous blocks),
	// block sizes are exactly radix except possibly the last, and the
	// partition is a pure function of (nodes, radix).
	f := func(nodesSeed, radixSeed uint16) bool {
		nodes := 1 + int(nodesSeed)%5000
		radix := int(radixSeed) % 70 // includes 0: single subtree
		m := LeafSubtrees(nodes, radix)
		if m.Count < 1 || len(m.Of) != nodes {
			return false
		}
		prev := int32(0)
		for n, id := range m.Of {
			if id < prev || id > prev+1 || int(id) >= m.Count {
				return false
			}
			if radix > 0 && radix < nodes && int(id) != n/radix {
				return false
			}
			prev = id
		}
		if int(prev) != m.Count-1 {
			return false // ids must be dense up to Count
		}
		// Every subtree except the last holds exactly radix nodes.
		if radix > 0 && radix < nodes {
			for s := 0; s < m.Count-1; s++ {
				if m.Size(s) != radix {
					return false
				}
			}
			last := m.Size(m.Count - 1)
			if last < 1 || last > radix {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSubtreesAndExa(t *testing.T) {
	e := ClusterE()
	if err := e.Validate(); err != nil {
		t.Fatalf("cluster E: %v", err)
	}
	if got := e.Nodes * e.CoresPerNode(); got != 114688 {
		t.Fatalf("cluster E full-system ranks = %d, want 114688 (the 100k+ regime)", got)
	}
	if e.Net.Oversubscription <= 1 {
		t.Error("cluster E must model an oversubscribed core")
	}
	m := LeafSubtrees(e.Nodes, e.Net.LeafRadix)
	if m.Count != 128 {
		t.Errorf("cluster E subtrees = %d, want 128 (4096/32)", m.Count)
	}
	if ByName("E") == nil {
		t.Error(`ByName("E") = nil`)
	}
	// The paper clusters keep their leaf radix: cluster A's 40 nodes hang
	// off three 16-port leaves.
	subtrees := func(c *Cluster) int { return LeafSubtrees(c.Nodes, c.Net.LeafRadix).Count }
	if got := subtrees(ClusterA()); got != 3 {
		t.Errorf("cluster A subtrees = %d, want 3", got)
	}
	// A job on fewer nodes repartitions: 16 nodes of A are one leaf.
	if got := LeafSubtrees(16, ClusterA().Net.LeafRadix).Count; got != 1 {
		t.Errorf("16-node cluster A subtrees = %d, want 1", got)
	}
}
