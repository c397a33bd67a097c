package core

import (
	"encoding/json"
	"strings"
	"testing"

	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// tracedEngine builds an engine with an unlimited trace recorder.
func tracedEngine(t *testing.T, cl *topology.Cluster, nodes, ppn int) (*Engine, *trace.Recorder) {
	t.Helper()
	job, err := topology.NewJob(cl, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	return NewEngine(mpi.NewWorld(job, mpi.Config{Trace: rec})), rec
}

// rankPhases sums each rank's phase spans by phase name.
func rankPhases(rec *trace.Recorder) map[int]map[string]sim.Duration {
	out := map[int]map[string]sim.Duration{}
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindPhase {
			continue
		}
		if out[ev.Rank] == nil {
			out[ev.Rank] = map[string]sim.Duration{}
		}
		out[ev.Rank][ev.Label] += ev.Duration()
	}
	return out
}

// runTraced performs iters allreduces of count float64 elements under the
// given spec and returns the trace.
func runTraced(t *testing.T, s Spec, nodes, ppn, count, iters int) *trace.Recorder {
	t.Helper()
	e, rec := tracedEngine(t, topology.ClusterA(), nodes, ppn)
	err := e.W.Run(func(r *mpi.Rank) error {
		for it := 0; it < iters; it++ {
			v := mpi.NewVector(mpi.Float64, count)
			for i := 0; i < count; i++ {
				v.Set(i, float64(r.Rank()+i+it))
			}
			if err := e.Allreduce(r, s, mpi.Sum, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestPhasesTileCollectives is the tentpole property: on every rank, the
// recorded phase spans exactly tile the collective spans, so per-phase
// durations sum to the total allreduce time — the breakdown accounts for
// 100% of the operation with nothing double-counted or missed.
func TestPhasesTileCollectives(t *testing.T) {
	specs := []Spec{
		Flat(mpi.AlgRecursiveDoubling),
		DPML(1),
		DPML(3),
		DPMLPipelined(2, 3),
		{Design: DesignSharpNode},
		{Design: DesignSharpSocket},
		DualRoot(3),
		GenAll(2),
		PAPSorted(),
		PAPRing(),
		{Design: DesignProposed},
		{Design: DesignMVAPICH2},
	}
	for _, s := range specs {
		t.Run(s.String(), func(t *testing.T) {
			rec := runTraced(t, s, 3, 5, 200, 2)
			phase := map[int]sim.Duration{}
			coll := map[int]sim.Duration{}
			for _, e := range rec.Events() {
				switch e.Kind {
				case trace.KindPhase:
					phase[e.Rank] += e.Duration()
				case trace.KindCollective:
					coll[e.Rank] += e.Duration()
				}
			}
			if len(coll) != 15 {
				t.Fatalf("collective spans on %d ranks, want 15", len(coll))
			}
			for rank, total := range coll {
				if phase[rank] != total {
					t.Errorf("rank %d: phases sum to %v, collective total %v", rank, phase[rank], total)
				}
			}
		})
	}
}

// TestPhasesTileUnderSharpFallback repeats the tiling property with the
// sharp designs forced through their host fallback and through the
// oversize-payload dpml path: degraded modes must stay fully attributed.
func TestPhasesTileUnderSharpFallback(t *testing.T) {
	e, rec := tracedEngine(t, topology.ClusterA(), 2, 4)
	max := e.W.Sharp.MaxPayload()
	err := e.W.Run(func(r *mpi.Rank) error {
		// Oversize payload: sharp design degrades to single-leader dpml.
		v := mpi.NewVector(mpi.Float64, max/8+8)
		return e.Allreduce(r, Spec{Design: DesignSharpNode}, mpi.Sum, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	phase := map[int]sim.Duration{}
	coll := map[int]sim.Duration{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindPhase:
			phase[ev.Rank] += ev.Duration()
		case trace.KindCollective:
			coll[ev.Rank] += ev.Duration()
		}
	}
	for rank, total := range coll {
		if phase[rank] != total {
			t.Errorf("rank %d: phases sum to %v, collective total %v", rank, phase[rank], total)
		}
	}
}

// DPML allreduces read back from their phase spans: every rank records
// copy-in and bcast-out, only the leaders record intra-reduce and
// inter-leader, and tracing leaves the result intact.
func TestAllreduceProfiled(t *testing.T) {
	e, rec := tracedEngine(t, topology.ClusterB(), 4, 8)
	err := e.W.Run(func(r *mpi.Rank) error {
		if err := e.Allreduce(r, DPML(4), mpi.Sum, mpi.NewPhantom(mpi.Float32, 1<<16)); err != nil {
			return err
		}
		real := mpi.NewVector(mpi.Float64, 8)
		real.Fill(1)
		if err := e.Allreduce(r, DPML(2), mpi.Sum, real); err != nil {
			return err
		}
		if real.At(0) != float64(e.W.Job.NumProcs()) {
			t.Errorf("traced allreduce wrong: %v", real.At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := rankPhases(rec)
	for rank := 0; rank < e.W.Job.NumProcs(); rank++ {
		pt := phases[rank]
		if pt[trace.PhaseCopy] <= 0 || pt[trace.PhaseBcast] <= 0 {
			t.Errorf("rank %d: copy/bcast phases empty: %v", rank, pt)
		}
		reduce, hasReduce := pt[trace.PhaseReduce]
		inter, hasInter := pt[trace.PhaseInter]
		if e.W.Job.Place(rank).LocalRank < 4 {
			if reduce <= 0 || inter <= 0 {
				t.Errorf("leader %d: reduce/inter phases empty: %v", rank, pt)
			}
		} else if hasReduce || hasInter {
			t.Errorf("non-leader %d: unexpected leader phases: %v", rank, pt)
		}
	}
}

// TestLeafEventsCarryPhases checks the automatic stamping: every leaf
// event recorded during a DPML allreduce lands in one of the canonical
// phases.
func TestLeafEventsCarryPhases(t *testing.T) {
	rec := runTraced(t, DPML(2), 2, 4, 300, 1)
	valid := map[string]bool{
		trace.PhaseCopy: true, trace.PhaseReduce: true,
		trace.PhaseInter: true, trace.PhaseBcast: true,
	}
	leaves := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindPhase, trace.KindCollective:
			continue
		}
		leaves++
		if !valid[e.Phase] {
			t.Errorf("leaf %s %q stamped with phase %q", e.Kind, e.Label, e.Phase)
		}
	}
	if leaves == 0 {
		t.Fatal("no leaf events recorded")
	}
}

// TestCriticalPathOnRealRun sanity-checks the extraction on a real DPML
// trace: the path tiles the makespan, ends at the last event, and at
// least one phase has zero slack (something must gate completion).
func TestCriticalPathOnRealRun(t *testing.T) {
	rec := runTraced(t, DPML(3), 3, 5, 400, 1)
	cp := rec.CriticalPath()
	if len(cp.Steps) == 0 {
		t.Fatal("empty critical path")
	}
	var busy, wait sim.Duration
	for _, st := range cp.Steps {
		busy += st.Busy
		wait += st.Wait
	}
	if busy+wait != cp.Total {
		t.Fatalf("path busy %v + wait %v != makespan %v", busy, wait, cp.Total)
	}
	var last sim.Time
	for _, e := range rec.Events() {
		if e.End > last {
			last = e.End
		}
	}
	if cp.Total != last.Sub(0) {
		t.Fatalf("makespan %v != last event end %v", cp.Total, last)
	}
	zeroSlack := false
	for _, p := range cp.Phases {
		if p.Slack < 0 {
			t.Errorf("phase %q has negative slack %v", p.Phase, p.Slack)
		}
		if p.Slack == 0 {
			zeroSlack = true
		}
	}
	if !zeroSlack {
		t.Error("no phase gates completion (all slack positive)")
	}
}

// TestChromeExportOnRealRun validates the Perfetto export structurally on
// a real trace: valid JSON, pids reflecting node placement, one complete
// event per recorded event.
func TestChromeExportOnRealRun(t *testing.T) {
	e, rec := tracedEngine(t, topology.ClusterA(), 3, 4)
	err := e.W.Run(func(r *mpi.Rank) error {
		v := mpi.NewVector(mpi.Float64, 128)
		return e.Allreduce(r, DPML(2), mpi.Sum, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rec.WriteChrome(&b, func(rank int) int { return e.W.Job.Place(rank).Node }); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if want := e.W.Job.Place(ev.Tid).Node; ev.Pid != want {
			t.Errorf("rank %d exported under pid %d, want node %d", ev.Tid, ev.Pid, want)
		}
	}
	if complete != rec.Len() {
		t.Fatalf("complete events = %d, recorded = %d", complete, rec.Len())
	}
}

// TestMetricsRegistryOnRealRun checks the registry snapshot: the
// simulator, fabric, and arrival counters must be present and plausible
// after an inter-node collective.
func TestMetricsRegistryOnRealRun(t *testing.T) {
	e, rec := tracedEngine(t, topology.ClusterA(), 3, 4)
	err := e.W.Run(func(r *mpi.Rank) error {
		for it := 0; it < 3; it++ {
			v := mpi.NewVector(mpi.Float64, 256)
			if err := e.Allreduce(r, DPML(2), mpi.Sum, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := e.W.Metrics()
	positive := []string{
		"sim.events", "sim.context_switches", "sim.heap_high_water",
		"sim.elapsed", "flows.started", "net.messages", "net.bytes",
		"nic.injected", "mem.copies", "mem.bytes", "link.total_busy",
		"link.max_utilization",
	}
	for _, name := range positive {
		v, ok := m.Get(name)
		if !ok {
			t.Errorf("metric %q missing", name)
		} else if v <= 0 {
			t.Errorf("metric %q = %g, want > 0", name, v)
		}
	}
	if ops, _ := m.Get("coll.ops"); ops != 3 {
		t.Errorf("coll.ops = %g, want 3", ops)
	}
	if got, _ := m.Get("job.procs"); got != 12 {
		t.Errorf("job.procs = %g, want 12", got)
	}
	// Flows must balance, and the trace recorder must agree on ops.
	started, _ := m.Get("flows.started")
	completed, _ := m.Get("flows.completed")
	if started != completed {
		t.Errorf("flows started %g != completed %g after run", started, completed)
	}
	if ar := rec.CollectiveArrivals(); ar.Ops != 3 {
		t.Errorf("arrivals ops = %d, want 3", ar.Ops)
	}
	var b strings.Builder
	m.WriteText(&b)
	if !strings.Contains(b.String(), "sim.events") {
		t.Error("WriteText missing sim.events")
	}
}
