package fabric

import (
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
)

// BenchmarkMemChannelChurn times one round of 64 KB copies from 64
// ranks on a KNL node's memory channel. The copies start 50 ns apart, so
// all 64 are live at once and the link saturates from the 54th on; every
// start and every completion on the saturated link re-fills up to 64
// flows.
func BenchmarkMemChannelChurn(b *testing.B) {
	b.ReportAllocs()
	c := topology.ClusterD()
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	m := NewMemChannel(k, c, 0)
	k.Spawn("driver", func(p *sim.Proc) {
		var wg join
		done := wg.done
		round := func() {
			for i := 0; i < 64; i++ {
				wg.n++
				m.flows.Start(64<<10, c.Mem.CopyRate, done, m.link)
				p.Sleep(50)
			}
			wg.wait(p, "copies")
		}
		round()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
	})
	if err := co.Run(); err != nil {
		b.Fatal(err)
	}
}
