package trace

import (
	"fmt"
	"io"
	"sort"

	"dpml/internal/sim"
)

// Canonical phase names used by the core designs. The paper's argument is
// a where-does-the-time-go argument, so the phases mirror its
// decomposition: the shared-memory gather (Phase 1), the intra-node
// reduction (Phase 2), the inter-leader exchange (Phase 3), the
// shared-memory broadcast (Phase 4), plus the SHArP offload, the flat
// single-algorithm exchange, and the degraded-mode fallback.
const (
	PhaseCopy     = "copy-in"
	PhaseReduce   = "intra-reduce"
	PhaseInter    = "inter-leader"
	PhaseSharp    = "sharp-offload"
	PhaseBcast    = "bcast-out"
	PhaseFlat     = "flat-exchange"
	PhaseFallback = "fallback"
	// Phases of the extension design families: the dual-root pipelined
	// tree's upward reduction and downward broadcast sweeps, the
	// generalized (grouped) allreduce's single exchange, and the
	// process-arrival-pattern-aware reorderings.
	PhaseTreeReduce = "tree-reduce"
	PhaseTreeBcast  = "tree-bcast"
	PhaseGroup      = "group-exchange"
	PhasePAP        = "pap-exchange"
)

// phaseOrder ranks the canonical phases for reports; unknown phases sort
// after them, alphabetically.
var phaseOrder = map[string]int{
	PhaseCopy:       0,
	PhaseReduce:     1,
	PhaseInter:      2,
	PhaseSharp:      3,
	PhaseBcast:      4,
	PhaseFlat:       5,
	PhaseFallback:   6,
	PhaseTreeReduce: 7,
	PhaseTreeBcast:  8,
	PhaseGroup:      9,
	PhasePAP:        10,
}

func phaseLess(a, b string) bool {
	ai, aok := phaseOrder[a]
	bi, bok := phaseOrder[b]
	switch {
	case aok && bok:
		return ai < bi
	case aok:
		return true
	case bok:
		return false
	}
	return a < b
}

// Span is one open phase (or collective) on one rank. Spans are created
// with BeginSpan/BeginCollective and turned into a recorded Event by End.
// While a span is open, every event Add records on its rank is stamped
// with the innermost open phase name, which is how leaf events (sends,
// copies, compute) get attributed to the DPML phase they ran in.
//
// A nil *Span (returned by a nil or missing Recorder) ignores End, so
// call sites need no guards — the instrumentation is bit-transparent when
// recording is off.
type Span struct {
	rec   *Recorder
	rank  int
	kind  Kind
	label string
	start sim.Time
	bytes int
}

// BeginSpan opens a phase span on rank. Spans on one rank must strictly
// nest (End in reverse Begin order); the simulation runs each rank
// sequentially, so that is the natural shape. Nil recorders return nil.
func (t *Recorder) BeginSpan(rank int, phase string, now sim.Time) *Span {
	return t.begin(rank, KindPhase, phase, 0, now)
}

// BeginCollective opens the root span of one collective operation on
// rank: End records a KindCollective event, and the phases opened inside
// it decompose it. Label should identify the operation (the Spec string).
func (t *Recorder) BeginCollective(rank int, label string, bytes int, now sim.Time) *Span {
	return t.begin(rank, KindCollective, label, bytes, now)
}

func (t *Recorder) begin(rank int, kind Kind, label string, bytes int, now sim.Time) *Span {
	if t == nil {
		return nil
	}
	if rank < 0 {
		panic(fmt.Sprintf("trace: BeginSpan on rank %d", rank))
	}
	for rank >= len(t.open) {
		t.open = append(t.open, nil)
	}
	s := &Span{rec: t, rank: rank, kind: kind, label: label, start: now, bytes: bytes}
	t.open[rank] = append(t.open[rank], s)
	return s
}

// currentPhase returns the innermost open phase-kind span's label on
// rank, or "" when the rank is outside any phase (possibly inside a bare
// collective span).
func (t *Recorder) currentPhase(rank int) string {
	if t == nil || rank < 0 || rank >= len(t.open) {
		return ""
	}
	stack := t.open[rank]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].kind == KindPhase {
			return stack[i].label
		}
	}
	return ""
}

// End closes the span at the given instant and records it as an Event
// (stamped with the enclosing phase, like any other event). Spans must be
// ended in reverse Begin order per rank. Nil spans ignore End.
func (s *Span) End(now sim.Time) {
	if s == nil {
		return
	}
	t := s.rec
	stack := t.open[s.rank]
	if len(stack) == 0 || stack[len(stack)-1] != s {
		panic(fmt.Sprintf("trace: span %q on rank %d ended out of order", s.label, s.rank))
	}
	t.open[s.rank] = stack[:len(stack)-1]
	t.Add(Event{
		Rank: s.rank, Kind: s.kind, Label: s.label,
		Start: s.start, End: now, Bytes: s.bytes,
	})
}

// PhaseStat summarizes one phase across all ranks and operations.
type PhaseStat struct {
	Phase string
	Count int          // span instances
	Busy  sim.Duration // summed span durations across ranks
	Ranks int          // distinct ranks that ran the phase
}

// PhaseStats aggregates the recorded phase spans, in canonical phase
// order (copy-in, intra-reduce, inter-leader, sharp-offload, bcast-out,
// flat-exchange, fallback, then any custom phases alphabetically).
func (t *Recorder) PhaseStats() []PhaseStat {
	acc := map[string]*PhaseStat{}
	ranks := map[string]map[int]bool{}
	for _, e := range t.Events() {
		if e.Kind != KindPhase {
			continue
		}
		s, ok := acc[e.Label]
		if !ok {
			s = &PhaseStat{Phase: e.Label}
			acc[e.Label] = s
			ranks[e.Label] = map[int]bool{}
		}
		s.Count++
		s.Busy += e.Duration()
		ranks[e.Label][e.Rank] = true
	}
	out := make([]PhaseStat, 0, len(acc))
	for name, s := range acc {
		s.Ranks = len(ranks[name])
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return phaseLess(out[i].Phase, out[j].Phase) })
	return out
}

// CollectiveTotal returns the summed duration of all recorded collective
// spans across ranks — the denominator of the per-phase breakdown.
func (t *Recorder) CollectiveTotal() sim.Duration {
	var total sim.Duration
	for _, e := range t.Events() {
		if e.Kind == KindCollective {
			total += e.Duration()
		}
	}
	return total
}

// WritePhaseReport renders the per-phase time attribution the paper
// reasons with: for each phase, total busy time across ranks, its share
// of all phase time, and mean time per span instance. The trailing
// coverage line reports how much of the collective total the top-level
// phases account for — 100.0% when the phases tile every collective
// exactly (the recorded invariant for all built-in designs).
func (t *Recorder) WritePhaseReport(w io.Writer) {
	stats := t.PhaseStats()
	var phaseTotal sim.Duration
	for _, s := range stats {
		phaseTotal += s.Busy
	}
	collTotal := t.CollectiveTotal()
	fmt.Fprintf(w, "phase breakdown: %d phase spans over %d phases\n", countSpans(stats), len(stats))
	fmt.Fprintf(w, "  %-14s %8s %14s %14s %7s\n", "phase", "count", "busy", "mean/span", "share")
	for _, s := range stats {
		share := 0.0
		if phaseTotal > 0 {
			share = 100 * float64(s.Busy) / float64(phaseTotal)
		}
		mean := sim.Duration(0)
		if s.Count > 0 {
			mean = s.Busy / sim.Duration(s.Count)
		}
		fmt.Fprintf(w, "  %-14s %8d %14v %14v %6.1f%%\n", s.Phase, s.Count, s.Busy, mean, share)
	}
	if collTotal > 0 {
		fmt.Fprintf(w, "  collective total %v across ranks; phase coverage %.1f%%\n",
			collTotal, 100*float64(phaseTotal)/float64(collTotal))
	}
}

func countSpans(stats []PhaseStat) int {
	n := 0
	for _, s := range stats {
		n += s.Count
	}
	return n
}

// ArrivalStats summarizes process-arrival-pattern skew across the
// recorded collectives (Proficz's imbalanced-arrival observable): for
// each operation, the spread between the first and last rank to enter it,
// and the imbalance factor — spread divided by the operation's mean
// duration. A factor near 0 means ranks arrived together; a factor near 1
// means the arrival skew is as large as the operation itself.
type ArrivalStats struct {
	Ops           int          // collective operations observed on every rank
	MaxSpread     sim.Duration // worst first-to-last arrival spread
	MeanSpread    sim.Duration
	MaxImbalance  float64
	MeanImbalance float64
}

// CollectiveArrivals groups the recorded collective spans by per-rank
// occurrence order (the i-th collective on every rank is one operation —
// collectives are called in the same order by all ranks) and measures the
// arrival skew of each operation.
func (t *Recorder) CollectiveArrivals() ArrivalStats {
	perRank := map[int][]Event{}
	for _, e := range t.Events() {
		if e.Kind == KindCollective {
			perRank[e.Rank] = append(perRank[e.Rank], e)
		}
	}
	var st ArrivalStats
	if len(perRank) == 0 {
		return st
	}
	ops := -1
	for _, evs := range perRank {
		if ops < 0 || len(evs) < ops {
			ops = len(evs)
		}
	}
	var spreadSum sim.Duration
	var imbSum float64
	for op := 0; op < ops; op++ {
		first, last := sim.Time(0), sim.Time(0)
		var durSum sim.Duration
		n := 0
		for _, evs := range perRank {
			e := evs[op]
			if n == 0 || e.Start < first {
				first = e.Start
			}
			if n == 0 || e.Start > last {
				last = e.Start
			}
			durSum += e.Duration()
			n++
		}
		spread := last.Sub(first)
		mean := durSum / sim.Duration(n)
		imb := 0.0
		if mean > 0 {
			imb = float64(spread) / float64(mean)
		}
		spreadSum += spread
		imbSum += imb
		if spread > st.MaxSpread {
			st.MaxSpread = spread
		}
		if imb > st.MaxImbalance {
			st.MaxImbalance = imb
		}
	}
	st.Ops = ops
	if ops > 0 {
		st.MeanSpread = spreadSum / sim.Duration(ops)
		st.MeanImbalance = imbSum / float64(ops)
	}
	return st
}
