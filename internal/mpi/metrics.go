package mpi

import (
	"fmt"

	"dpml/internal/metrics"
	"dpml/internal/sim"
)

// Metrics snapshots the run's counters — kernel scheduler activity,
// fluid-flow engine stats, per-link and per-NIC fabric activity, per-node
// shared-memory traffic, and (when tracing is on) collective arrival
// skew — into one insertion-ordered registry. Call it after Run returns;
// it only reads, so it cannot perturb the simulation, and it is cheap
// enough to call repeatedly.
func (w *World) Metrics() *metrics.Registry {
	r := metrics.NewRegistry()
	elapsed := w.Now().Sub(0)
	stats := w.SimStats()

	r.Set("job.procs", "", float64(w.Job.NumProcs()))
	r.Set("job.nodes", "", float64(w.Job.NodesUsed))
	r.Set("job.ppn", "", float64(w.Job.PPN))
	r.Set("sim.elapsed", "ns", float64(elapsed))
	r.Set("sim.events", "", float64(stats.Events))
	// Host-side scheduler counters: deterministic for a fixed shard
	// count, but not shard-invariant (see sim.KernelStats) — tools
	// comparing runs across shard counts must skip them.
	r.Set("sim.context_switches", "", float64(stats.ContextSwitch))
	r.Set("sim.heap_high_water", "events", float64(stats.HeapHighWater))

	// Flow-engine counters, aggregated across the network LP's engine
	// and the per-node memory engines (each shard-invariant on its own).
	flows := w.Flows.Stats
	for _, fn := range w.memFlows {
		flows.Started += fn.Stats.Started
		flows.Completed += fn.Stats.Completed
		flows.Recompute += fn.Stats.Recompute
		flows.FastPath += fn.Stats.FastPath
	}
	r.Set("flows.started", "", float64(flows.Started))
	r.Set("flows.completed", "", float64(flows.Completed))
	r.Set("flows.recomputes", "", float64(flows.Recompute))
	r.Set("flows.fast_path", "", float64(flows.FastPath))

	r.Set("net.messages", "", float64(w.Net.Stats.Messages))
	r.Set("net.bytes", "bytes", float64(w.Net.Stats.Bytes))

	// Per-link activity plus fleet aggregates. Utilization is the
	// fraction of link capacity used over the whole run.
	var busiestUtil float64
	busiestName := ""
	var totalBusy sim.Duration
	for _, lr := range w.Net.Report() {
		util := 0.0
		if elapsed > 0 && lr.Capacity > 0 {
			util = float64(lr.Bytes) / (lr.Capacity * elapsed.Seconds())
		}
		totalBusy += lr.Busy
		if util > busiestUtil {
			busiestUtil, busiestName = util, lr.Name
		}
		prefix := "link." + lr.Name
		r.Set(prefix+".bytes", "bytes", float64(lr.Bytes))
		r.Set(prefix+".busy", "ns", float64(lr.Busy))
		r.Set(prefix+".utilization", "", util)
	}
	r.Set("link.total_busy", "ns", float64(totalBusy))
	r.Set("link.max_utilization", "", busiestUtil)
	if busiestName != "" {
		// Encode which link peaked as an index-free marker metric.
		r.Set("link.max_utilization."+busiestName, "", busiestUtil)
	}

	// Per-NIC injection queues: message counts and worst backlog.
	var worstBacklog sim.Duration
	var injected uint64
	for _, ir := range w.Net.InjectReports() {
		injected += ir.Messages
		if ir.MaxBacklog > worstBacklog {
			worstBacklog = ir.MaxBacklog
		}
		prefix := fmt.Sprintf("nic.n%d", ir.Node)
		r.Set(prefix+".injected", "", float64(ir.Messages))
		r.Set(prefix+".max_backlog", "ns", float64(ir.MaxBacklog))
	}
	r.Set("nic.injected", "", float64(injected))
	r.Set("nic.max_backlog", "ns", float64(worstBacklog))

	// Per-node shared-memory channels.
	var copies, cross, memBytes uint64
	for node, m := range w.Mem {
		prefix := fmt.Sprintf("mem.n%d", node)
		r.Set(prefix+".copies", "", float64(m.Stats.Copies))
		r.Set(prefix+".cross_socket", "", float64(m.Stats.CrossSocket))
		r.Set(prefix+".bytes", "bytes", float64(m.Stats.Bytes))
		copies += m.Stats.Copies
		cross += m.Stats.CrossSocket
		memBytes += m.Stats.Bytes
	}
	r.Set("mem.copies", "", float64(copies))
	r.Set("mem.cross_socket", "", float64(cross))
	r.Set("mem.bytes", "bytes", float64(memBytes))

	// Collective arrival skew (Proficz's imbalance observable) — only
	// available when a trace recorder captured the collective spans.
	if tr := w.Tracer(); tr != nil {
		if ar := tr.CollectiveArrivals(); ar.Ops > 0 {
			r.Set("coll.ops", "", float64(ar.Ops))
			r.Set("coll.arrival_spread.max", "ns", float64(ar.MaxSpread))
			r.Set("coll.arrival_spread.mean", "ns", float64(ar.MeanSpread))
			r.Set("coll.imbalance.max", "", ar.MaxImbalance)
			r.Set("coll.imbalance.mean", "", ar.MeanImbalance)
		}
	}
	return r
}
