package trace

import (
	"strings"
	"testing"

	"dpml/internal/sim"
)

// buildSpanTrace assembles a small two-rank trace through the span API:
// one collective per rank decomposed into copy-in / inter-leader /
// bcast-out, with leaf events inside the phases. Used by the span,
// report, and golden tests.
func buildSpanTrace() *Recorder {
	r := New(0)
	for rank := 0; rank < 2; rank++ {
		base := sim.Time(rank * 50) // rank 1 arrives late: arrival skew
		peer := "1"
		if rank == 1 {
			peer = "0"
		}
		c := r.BeginCollective(rank, "dpml(l=2)", 1024, base)
		p := r.BeginSpan(rank, PhaseCopy, base)
		r.Add(Event{Rank: rank, Kind: KindShmCopy, Label: "intra-socket",
			Start: base, End: base + 100, Bytes: 512})
		p.End(base + 100)
		p = r.BeginSpan(rank, PhaseInter, base+100)
		r.Add(Event{Rank: rank, Kind: KindSend, Label: "->" + peer,
			Start: base + 100, End: base + 300, Bytes: 512})
		r.Add(Event{Rank: rank, Kind: KindRecv, Label: "<-" + peer,
			Start: base + 300, End: base + 600, Bytes: 512})
		p.End(base + 600)
		p = r.BeginSpan(rank, PhaseBcast, base+600)
		r.Add(Event{Rank: rank, Kind: KindShmCopy, Label: "cross-socket",
			Start: base + 600, End: base + 700, Bytes: 512})
		p.End(base + 700)
		c.End(base + 700)
	}
	return r
}

func TestSpanStampsPhases(t *testing.T) {
	r := buildSpanTrace()
	var leaves, phases, colls int
	for _, e := range r.Events() {
		switch e.Kind {
		case KindPhase:
			phases++
			if e.Phase != "" {
				t.Errorf("top-level phase %q stamped with parent %q", e.Label, e.Phase)
			}
		case KindCollective:
			colls++
		default:
			leaves++
			if e.Phase == "" {
				t.Errorf("leaf %s %q not stamped with a phase", e.Kind, e.Label)
			}
		}
	}
	if leaves != 8 || phases != 6 || colls != 2 {
		t.Fatalf("leaves/phases/colls = %d/%d/%d, want 8/6/2", leaves, phases, colls)
	}
	// Spot-check attribution: sends happened inside the inter phase.
	for _, e := range r.Events() {
		if e.Kind == KindSend && e.Phase != PhaseInter {
			t.Errorf("send stamped %q, want %q", e.Phase, PhaseInter)
		}
		if e.Kind == KindShmCopy && e.Phase != PhaseCopy && e.Phase != PhaseBcast {
			t.Errorf("shmcopy stamped %q", e.Phase)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	r := New(0)
	outer := r.BeginSpan(0, "outer", 0)
	inner := r.BeginSpan(0, "inner", 10)
	if got := r.currentPhase(0); got != "inner" {
		t.Fatalf("currentPhase = %q, want inner", got)
	}
	inner.End(20)
	if got := r.currentPhase(0); got != "outer" {
		t.Fatalf("currentPhase after pop = %q, want outer", got)
	}
	outer.End(30)
	if got := r.currentPhase(0); got != "" {
		t.Fatalf("currentPhase after all pops = %q", got)
	}
	// The inner phase event is stamped with its parent.
	evs := r.Events()
	if len(evs) != 2 || evs[0].Label != "inner" || evs[0].Phase != "outer" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Label != "outer" || evs[1].Phase != "" {
		t.Fatalf("outer event = %+v", evs[1])
	}
}

func TestSpanOutOfOrderEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order span end accepted")
		}
	}()
	r := New(0)
	outer := r.BeginSpan(0, "outer", 0)
	r.BeginSpan(0, "inner", 10)
	outer.End(20)
}

func TestNilRecorderSpansAreSafe(t *testing.T) {
	var r *Recorder
	sp := r.BeginSpan(3, PhaseCopy, 100)
	if sp != nil {
		t.Fatal("nil recorder returned a span")
	}
	sp.End(200) // must not panic
	coll := r.BeginCollective(0, "x", 1, 0)
	coll.End(10)
	if r.Len() != 0 {
		t.Fatal("nil recorder recorded")
	}
	if got := r.PhaseStats(); len(got) != 0 {
		t.Fatalf("nil PhaseStats = %v", got)
	}
	if ar := r.CollectiveArrivals(); ar.Ops != 0 {
		t.Fatalf("nil arrivals = %+v", ar)
	}
	if cp := r.CriticalPath(); len(cp.Steps) != 0 {
		t.Fatalf("nil critical path = %+v", cp)
	}
}

func TestPhaseStatsAndTotals(t *testing.T) {
	r := buildSpanTrace()
	stats := r.PhaseStats()
	if len(stats) != 3 {
		t.Fatalf("got %d phases: %+v", len(stats), stats)
	}
	// Canonical order: copy-in, inter-leader, bcast-out.
	wantOrder := []string{PhaseCopy, PhaseInter, PhaseBcast}
	var phaseTotal sim.Duration
	for i, s := range stats {
		if s.Phase != wantOrder[i] {
			t.Errorf("phase[%d] = %q, want %q", i, s.Phase, wantOrder[i])
		}
		if s.Count != 2 || s.Ranks != 2 {
			t.Errorf("phase %q count/ranks = %d/%d, want 2/2", s.Phase, s.Count, s.Ranks)
		}
		phaseTotal += s.Busy
	}
	// Property: per-phase durations sum to the recorded collective total.
	if coll := r.CollectiveTotal(); phaseTotal != coll {
		t.Fatalf("phase total %v != collective total %v", phaseTotal, coll)
	}
}

func TestCollectiveArrivals(t *testing.T) {
	r := buildSpanTrace()
	ar := r.CollectiveArrivals()
	if ar.Ops != 1 {
		t.Fatalf("Ops = %d, want 1", ar.Ops)
	}
	// Rank 1 entered 50ns after rank 0; each op lasts 700ns.
	if ar.MaxSpread != 50 || ar.MeanSpread != 50 {
		t.Fatalf("spread = %v/%v, want 50/50", ar.MaxSpread, ar.MeanSpread)
	}
	want := 50.0 / 700.0
	if diff := ar.MaxImbalance - want; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("imbalance = %g, want %g", ar.MaxImbalance, want)
	}
}

func TestPhaseReportMentionsCoverage(t *testing.T) {
	r := buildSpanTrace()
	var b strings.Builder
	r.WritePhaseReport(&b)
	out := b.String()
	for _, want := range []string{PhaseCopy, PhaseInter, PhaseBcast, "phase coverage 100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
