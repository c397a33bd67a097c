package fabric

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dpml/internal/sim"
)

// refFill is an independent reimplementation of the canonical max-min
// water-fill on plain slices, always run as ONE global fill with every
// flow and link together, in global order. It exists so the production
// per-component fill can be checked against the mathematical definition
// it claims to decompose: partitioning into connected components must
// not change a single bit of any rate.
//
// caps[i] is flow i's rate ceiling; routes[i] lists the link indices
// flow i crosses; capacity[l] is link l's capacity. Returns the max-min
// fair rates.
func refFill(caps []float64, routes [][]int, capacity []float64) []float64 {
	nf, nl := len(caps), len(capacity)
	rates := make([]float64, nf)
	frozen := make([]bool, nf)
	// Per-link flow lists in global flow order, like Link.flows.
	flowsOn := make([][]int, nl)
	unfrozen := make([]int, nl)
	for i, r := range routes {
		for _, l := range r {
			flowsOn[l] = append(flowsOn[l], i)
			unfrozen[l]++
		}
	}
	share := make([]float64, nl)
	binds := make([]bool, nl)
	left := nf
	const eps = 1e-9
	for left > 0 {
		min := math.Inf(1)
		for l := 0; l < nl; l++ {
			if unfrozen[l] == 0 {
				continue
			}
			used := 0.0
			for _, i := range flowsOn[l] {
				if frozen[i] {
					used += rates[i]
				}
			}
			r := capacity[l] - used
			if r < 0 {
				r = 0
			}
			share[l] = r / float64(unfrozen[l])
			if share[l] < min {
				min = share[l]
			}
		}
		capFroze := false
		for i := 0; i < nf; i++ {
			if !frozen[i] && caps[i] <= min+eps {
				frozen[i] = true
				rates[i] = caps[i]
				for _, l := range routes[i] {
					unfrozen[l]--
				}
				left--
				capFroze = true
			}
		}
		if capFroze {
			continue
		}
		for l := 0; l < nl; l++ {
			binds[l] = unfrozen[l] > 0 && share[l] <= min*(1+1e-9)+eps
		}
		froze := false
		for l := 0; l < nl; l++ {
			if !binds[l] {
				continue
			}
			for _, i := range flowsOn[l] {
				if !frozen[i] {
					frozen[i] = true
					rates[i] = share[l]
					for _, ll := range routes[i] {
						unfrozen[ll]--
					}
					left--
					froze = true
				}
			}
		}
		if !froze {
			panic("refFill: no binding constraint")
		}
	}
	return rates
}

// refCheck compares the rate of every flow in n.active, bit for bit,
// with refFill run over the same flows and over links in the given order.
func refCheck(n *FlowNet, links []*Link) error {
	idx := make(map[*Link]int, len(links))
	capacity := make([]float64, len(links))
	for i, l := range links {
		idx[l] = i
		capacity[i] = l.capacity
	}
	caps := make([]float64, len(n.active))
	routes := make([][]int, len(n.active))
	for i, f := range n.active {
		caps[i] = f.cap
		for _, l := range f.links {
			routes[i] = append(routes[i], idx[l])
		}
	}
	want := refFill(caps, routes, capacity)
	for i, f := range n.active {
		// The decomposition claim is bitwise equality, not tolerance.
		if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
			return fmt.Errorf("flow %d rate %v, want %v (diff %g)", i, f.rate, want[i], f.rate-want[i])
		}
	}
	return nil
}

// TestPartitionedFillMatchesGlobalFill checks the production
// component-partitioned fill against the single global reference fill,
// requiring rates EXACTLY equal (==, not approximately), on two inputs:
//
//   - static: randomized topologies, many links of random capacity and
//     flows crossing random link subsets with random caps, filled once.
//     Random populations fragment into many components, so this directly
//     exercises the component-by-component fill.
//   - churn: flows started, completed and re-capacitated over virtual
//     time, which cycles flow objects through the FlowNet's free list.
//   - single-link churn: the same over one link, the shape of a node's
//     memory channel, which findComponents builds without union-find.
func TestPartitionedFillMatchesGlobalFill(t *testing.T) {
	t.Run("static", testStaticFill)
	t.Run("churn", testChurnFill)
	t.Run("single-link-churn", testSingleLinkChurn)
}

// componentState is what a component search leaves for the fill: the
// component count, each component's flows and links in order, and the
// per-flow and per-link ids and unfrozen counts.
func componentState(n *FlowNet, count int) string {
	var b strings.Builder
	for ci := 0; ci < count; ci++ {
		c := &n.comps[ci]
		fmt.Fprintf(&b, "comp %d:", ci)
		for _, f := range c.flows {
			fmt.Fprintf(&b, " %p/%d", f, f.comp)
		}
		for _, l := range c.links {
			fmt.Fprintf(&b, " %s/%d/%d/%d/%d", l.name, l.comp, l.unfrozen, len(l.flows), l.live)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// testSingleLinkChurn starts, completes and re-capacitates flows over
// a single link. Each check runs while a completion has left
// tombstones for the next fill to compact: it requires the direct
// single-link build to leave exactly the state union-find leaves on a
// twin of the same flow set, and, once the batched refill has run, the
// rates to equal refFill's bit for bit.
func testSingleLinkChurn(t *testing.T) {
	rng := uint64(5)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	mem := NewLink("mem", 4e9)
	var failed error
	direct, compacted := 0, 0
	compare := func() {
		if failed != nil || n.live == 0 {
			return
		}
		// Union-find on a twin: the same live flows over a fresh link,
		// in n.active order. The direct build runs on the real net,
		// tombstones included.
		twin := &FlowNet{k: k}
		tl := NewLink("mem", mem.capacity)
		tflows := map[*flow]*flow{}
		for _, f := range n.active {
			if f.done {
				continue
			}
			g := &flow{cap: f.cap}
			g.links = append(g.links, tl)
			tflows[f] = g
			twin.active = append(twin.active, g)
			twin.live++
		}
		for _, f := range mem.flows {
			if !f.done {
				tl.addFlow(tflows[f])
			}
		}
		tombs := len(mem.flows) - mem.live
		n.compact()
		if !n.oneLink() {
			failed = fmt.Errorf("t=%v: single-link net not built directly", k.Now())
			return
		}
		direct++
		if tombs > 0 && len(mem.flows) == mem.live {
			compacted++
		}
		got := componentState(n, 1)
		want := componentState(twin, twin.unionComponents())
		for f, g := range tflows {
			got = strings.ReplaceAll(got, fmt.Sprintf("%p", f), fmt.Sprintf("%p", g))
		}
		if got != want {
			failed = fmt.Errorf("t=%v: direct build\n%sunion-find\n%s", k.Now(), got, want)
		}
	}
	check := func() {
		if failed == nil && !n.dirty {
			if err := refCheck(n, []*Link{mem}); err != nil {
				failed = fmt.Errorf("t=%v: %v", k.Now(), err)
			}
		}
	}
	k.Spawn("driver", func(p *sim.Proc) {
		var wg join
		for step := 0; step < 300; step++ {
			if next(8) == 0 {
				n.SetLinkCapacity(mem, float64(1+next(8))*1e9)
			} else {
				wg.n++
				n.Start(int64(1+next(1<<20)), float64(1+next(10))*0.5e9, func() {
					compare()
					wg.done()
				}, mem)
			}
			k.After(0, check)
			if next(3) == 0 {
				p.Sleep(sim.Duration(1 + next(20_000)))
			}
		}
		wg.wait(p, "flows")
	})
	if err := co.Run(); err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if direct == 0 || compacted == 0 {
		t.Fatalf("%d direct builds, %d compacting a tombstone; the script must exercise both", direct, compacted)
	}
}

func testStaticFill(t *testing.T) {
	co := sim.NewCoordinator(1, 1, 0)
	k := co.KernelFor(0)
	n := NewFlowNet(k)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	maxComps := 0
	for trial := 0; trial < 80; trial++ {
		nLinks := 2 + next(30)
		links := make([]*Link, nLinks)
		for l := range links {
			links[l] = NewLink(fmt.Sprintf("t%d.l%d", trial, l), float64(1+next(40))*0.25e9)
		}
		nFlows := 1 + next(120)
		n.active = n.active[:0]
		n.live = 0
		for i := 0; i < nFlows; i++ {
			f := &flow{cap: float64(1+next(16)) * 0.125e9, remaining: 1e6}
			used := map[int]bool{}
			for j := 0; j <= next(3); j++ {
				li := next(nLinks)
				if used[li] {
					continue
				}
				used[li] = true
				f.links = append(f.links, links[li])
			}
			if len(f.links) == 0 {
				f.links = append(f.links, links[i%nLinks])
			}
			for _, l := range f.links {
				l.addFlow(f)
			}
			n.active = append(n.active, f)
			n.live++
		}

		comps := n.findComponents()
		if comps > maxComps {
			maxComps = comps
		}
		for ci := 0; ci < comps; ci++ {
			n.waterFill(&n.comps[ci])
		}
		if err := refCheck(n, links); err != nil {
			t.Fatalf("trial %d (%d comps): %v", trial, comps, err)
		}
	}
	if maxComps < 4 {
		t.Fatalf("largest trial had %d components; generator must produce fragmented topologies", maxComps)
	}
}

// testChurnFill runs a seeded script of flow starts (some over more links
// than a flow stores inline), mid-flight capacity changes and staggered
// sleeps. After every step, once the batched refill has run, it checks
// the rates against refFill and the free list against every list that
// can still hold a flow. The first two links carry traffic only in the
// first half, so the flows that finish last on them stay there as
// tombstones no later fill compacts, and must never be recycled. The
// script runs twice, with the free list in use and with it emptied
// before every Start (every flow a fresh object), and the completion
// logs must be identical.
func testChurnFill(t *testing.T) {
	run := func(pooled bool) (log []string) {
		rng := uint64(11)
		next := func(mod int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % mod
		}
		co := sim.NewCoordinator(1, 1, 0)
		k := co.KernelFor(0)
		n := NewFlowNet(k)
		const nLinks, retired = 10, 2
		links := make([]*Link, nLinks)
		for l := range links {
			links[l] = NewLink(fmt.Sprintf("l%d", l), float64(1+next(8))*1e9)
		}
		objects := map[*flow]bool{}
		var failed error
		check := func() {
			if failed != nil {
				return
			}
			held := map[*flow]bool{}
			for _, f := range n.active {
				held[f] = true
			}
			for _, l := range links {
				for _, f := range l.flows {
					held[f] = true
				}
			}
			free := map[*flow]bool{}
			for _, f := range n.free {
				if held[f] || free[f] || f.holders != 0 {
					failed = fmt.Errorf("t=%v: flow %p is on the free list while held (holders %d)", k.Now(), f, f.holders)
					return
				}
				free[f] = true
			}
			if !n.dirty {
				if err := refCheck(n, links); err != nil {
					failed = fmt.Errorf("t=%v: %v", k.Now(), err)
				}
			}
		}
		long := 0
		k.Spawn("driver", func(p *sim.Proc) {
			var wg join
			for step := 0; step < 400; step++ {
				lo := 0
				if step >= 200 {
					lo = retired
				}
				if next(6) == 0 {
					n.SetLinkCapacity(links[lo+next(nLinks-lo)], float64(1+next(8))*1e9)
				} else {
					hops := 1 + next(3)
					if next(16) == 0 {
						hops = maxPathLinks + 2
						long++
					}
					var route []*Link
					for _, i := range rngPerm(next, nLinks-lo)[:hops] {
						route = append(route, links[lo+i])
					}
					if !pooled {
						n.free = nil
					}
					id := step
					wg.n++
					n.Start(int64(1+next(1<<20)), float64(1+next(10))*0.5e9, func() {
						log = append(log, fmt.Sprintf("%d@%d", id, k.Now()))
						wg.done()
					}, route...)
					objects[n.active[len(n.active)-1]] = true
				}
				// Created after Start's refill event, so it runs after it.
				k.After(0, check)
				if next(3) == 0 {
					p.Sleep(sim.Duration(1 + next(20_000)))
				}
			}
			wg.wait(p, "flows")
			check()
		})
		if err := co.Run(); err != nil {
			t.Fatal(err)
		}
		if failed != nil {
			t.Fatalf("pooled=%v: %v", pooled, failed)
		}
		if long == 0 {
			t.Fatal("script started no flow longer than the inline link storage")
		}
		tombstones := 0
		for _, l := range links[:retired] {
			tombstones += len(l.flows) - l.live
		}
		if tombstones == 0 {
			t.Fatal("no tombstone left on a retired link; the script must leave some")
		}
		if pooled && len(objects) >= int(n.Stats.Started) {
			t.Fatalf("%d flows used %d objects; the free list was never reused", n.Stats.Started, len(objects))
		}
		return log
	}
	pooled, fresh := run(true), run(false)
	if !reflect.DeepEqual(pooled, fresh) {
		t.Fatalf("completion logs differ with and without the free list:\n%v\n%v", pooled, fresh)
	}
}

// rngPerm returns a random permutation of [0, m) drawn from next.
func rngPerm(next func(int) int, m int) []int {
	perm := make([]int, m)
	for i := range perm {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], i
	}
	return perm
}
