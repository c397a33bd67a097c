package mpi

import (
	"fmt"
	"strings"

	"dpml/internal/faults"
	"dpml/internal/sim"
)

// stragWin is one precompiled straggler window for a rank: while the
// clock is inside [start, end) the rank's compute and per-message CPU
// overheads stretch by factor.
type stragWin struct {
	start  sim.Time
	end    sim.Time // 0 = forever
	factor float64
}

// installFaults compiles the plan into the world: straggler windows
// become a per-rank lookup table consulted on the perturbed hot paths,
// while link, NIC, and SHArP windows become ordinary kernel events at
// their boundaries (capacities are restored to the values captured here,
// so windows on the same component must not overlap — the generator
// produces disjoint ones). Runs once, before the simulation starts; with
// no plan nothing is installed and the event stream is untouched.
func (w *World) installFaults(p *faults.Plan) {
	sh := faults.Shape{Ranks: len(w.ranks), Nodes: w.Job.NodesUsed}
	if err := p.Validate(sh); err != nil {
		panic(err)
	}
	if len(p.Stragglers) > 0 {
		w.strag = make([][]stragWin, len(w.ranks))
		for _, s := range p.Stragglers {
			w.strag[s.Rank] = append(w.strag[s.Rank], stragWin{s.Start, s.End, s.Factor})
		}
	}
	// Window-boundary events are installed on the LP owning the state
	// they mutate: link capacities and the SHArP flag are fabric state on
	// the network LP; NIC injector throttles are node-local state on the
	// throttled node's LP. AtOn keys pre-run events by the target LP, so
	// the installed event stream is identical under every shard count.
	netK := w.coord.NetKernel()
	netLP := netK.NetLP()
	for _, lf := range p.Links {
		lf := lf
		up, down := w.Net.NodeLinks(lf.Node)
		upBase, downBase := up.Capacity(), down.Capacity()
		netK.AtOn(netLP, lf.Start, func() {
			w.Flows.SetLinkCapacity(up, upBase*lf.Factor)
			w.Flows.SetLinkCapacity(down, downBase*lf.Factor)
		})
		if lf.End != 0 {
			netK.AtOn(netLP, lf.End, func() {
				w.Flows.SetLinkCapacity(up, upBase)
				w.Flows.SetLinkCapacity(down, downBase)
			})
		}
	}
	for _, nt := range p.NICs {
		nt := nt
		nk := w.coord.KernelFor(nt.Node)
		nk.AtOn(nt.Node, nt.Start, func() { w.Net.SetInjectScale(nt.Node, nt.Factor) })
		if nt.End != 0 {
			nk.AtOn(nt.Node, nt.End, func() { w.Net.SetInjectScale(nt.Node, 1) })
		}
	}
	if w.Sharp != nil {
		for _, o := range p.Sharp {
			o := o
			netK.AtOn(netLP, o.Start, func() { w.Sharp.SetFailed(true) })
			if o.End != 0 {
				netK.AtOn(netLP, o.End, func() { w.Sharp.SetFailed(false) })
			}
		}
	}
}

// stretch scales a CPU-side duration by the rank's straggler factor in
// force right now (the largest of its active windows), reading the clock
// of the rank's own kernel — stretch is only ever called in the rank's
// node context. Without straggler faults it returns d unchanged after a
// single nil check — this sits on the send/receive/compute hot paths and
// must cost nothing when off.
func (w *World) stretch(rk *Rank, d sim.Duration) sim.Duration {
	if w.strag == nil || d <= 0 {
		return d
	}
	f := 1.0
	now := rk.k.Now()
	for _, win := range w.strag[rk.rank] {
		if now >= win.start && (win.end == 0 || now < win.end) && win.factor > f {
			f = win.factor
		}
	}
	if f == 1 { //dpml:allow floateq -- 1.0 is an exact sentinel, never computed
		return d
	}
	return sim.Duration(float64(d) * f)
}

// diagnostics dumps each rank's pending message-matching state for
// deadlock and watchdog reports: how many receives it has posted without
// a matching message and how many messages arrived unexpected. Ranks with
// nothing pending are skipped; the dump is capped so a wedged 10k-rank
// job stays readable.
func (w *World) diagnostics() string {
	const maxLines = 16
	var b strings.Builder
	b.WriteString("pending requests:")
	lines, more := 0, 0
	for _, rk := range w.ranks {
		posted, unexpected := len(rk.posted.q), len(rk.unexpected.q)
		if posted == 0 && unexpected == 0 {
			continue
		}
		if lines == maxLines {
			more++
			continue
		}
		lines++
		fmt.Fprintf(&b, "\n  rank%d: %d posted recvs, %d unexpected msgs", rk.rank, posted, unexpected)
	}
	if more > 0 {
		fmt.Fprintf(&b, "\n  (+%d more ranks)", more)
	}
	if lines == 0 {
		b.WriteString(" none")
	}
	return b.String()
}
