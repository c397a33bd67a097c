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
		r.Phase(rank, PhaseCopy, base)
		r.Add(Event{Rank: rank, Kind: KindShmCopy, Label: "intra-socket",
			Start: base, End: base + 100, Bytes: 512})
		r.Phase(rank, PhaseInter, base+100)
		r.Add(Event{Rank: rank, Kind: KindSend, Label: "->" + peer,
			Start: base + 100, End: base + 300, Bytes: 512})
		r.Add(Event{Rank: rank, Kind: KindRecv, Label: "<-" + peer,
			Start: base + 300, End: base + 600, Bytes: 512})
		r.Phase(rank, PhaseBcast, base+600)
		r.Add(Event{Rank: rank, Kind: KindShmCopy, Label: "cross-socket",
			Start: base + 600, End: base + 700, Bytes: 512})
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

// TestPhaseIsATransition pins the transition semantics: each Phase ends
// the one before it, End closes the last phase and then the collective,
// and no phase or collective event carries a phase stamp.
func TestPhaseIsATransition(t *testing.T) {
	r := New(0)
	c := r.BeginCollective(0, "coll", 8, 0)
	r.Phase(0, "A", 10)
	r.Phase(0, "B", 25)
	c.End(40)
	want := []Event{
		{Rank: 0, Kind: KindPhase, Label: "A", Start: 10, End: 25},
		{Rank: 0, Kind: KindPhase, Label: "B", Start: 25, End: 40},
		{Rank: 0, Kind: KindCollective, Label: "coll", Start: 0, End: 40, Bytes: 8},
	}
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if p := r.currentPhase(0); p != "" {
		t.Fatalf("phase %q still open after the collective ended", p)
	}

	r.BeginCollective(1, "first", 0, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("a collective began inside an open collective")
		}
	}()
	r.BeginCollective(1, "second", 0, 60)
}

func TestNilRecorderSpansAreSafe(t *testing.T) {
	var r *Recorder
	coll := r.BeginCollective(0, "x", 1, 0)
	if coll != nil {
		t.Fatal("nil recorder returned a span")
	}
	r.Phase(0, PhaseCopy, 5) // must not panic
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
