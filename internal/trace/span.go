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

// Span is one open collective on one rank, created by BeginCollective
// and turned into a recorded KindCollective event by End. A nil *Span
// (returned by a nil Recorder) ignores End, so call sites need no guards
// — the instrumentation is bit-transparent when recording is off.
type Span struct {
	rec   *Recorder
	rank  int
	label string
	start sim.Time
	bytes int
}

// rankState is one rank's open collective and open phase. Phases do not
// nest and neither do collectives, so one of each is all a rank can have.
type rankState struct {
	coll       *Span
	phase      string // "" when no phase is open
	phaseStart sim.Time
}

// state returns rank's open-span state, growing the per-rank slice when
// the recorder was not Reserved for it.
func (t *Recorder) state(rank int) *rankState {
	if rank < 0 {
		panic(fmt.Sprintf("trace: span on rank %d", rank))
	}
	for rank >= len(t.open) {
		t.open = append(t.open, rankState{})
	}
	return &t.open[rank]
}

// BeginCollective opens the root span of one collective operation on
// rank: End records a KindCollective event, and the phases entered
// inside it decompose it. Label should identify the operation (the Spec
// string). A rank runs one collective at a time, so BeginCollective
// panics if rank already has one open. Nil recorders return nil.
func (t *Recorder) BeginCollective(rank int, label string, bytes int, now sim.Time) *Span {
	if t == nil {
		return nil
	}
	st := t.state(rank)
	if st.coll != nil {
		panic(fmt.Sprintf("trace: collective %q on rank %d began inside open collective %q", label, rank, st.coll.label))
	}
	st.coll = &Span{rec: t, rank: rank, label: label, start: now, bytes: bytes}
	return st.coll
}

// Phase records that rank is in phase from now on: it ends the rank's
// open phase at now, if there is one, and opens phase. A phase lasts
// until the rank's next Phase or the End of its collective, so the
// phases of a collective tile it from its first Phase to its End. Every
// event Add records on rank meanwhile is stamped with phase, which is
// how leaf events (sends, copies, compute) get attributed to the DPML
// phase they ran in. Nil recorders ignore it.
func (t *Recorder) Phase(rank int, phase string, now sim.Time) {
	if t == nil {
		return
	}
	st := t.state(rank)
	t.endPhase(rank, now)
	st.phase, st.phaseStart = phase, now
}

// endPhase records rank's open phase, if any, as a KindPhase event
// ending at now.
func (t *Recorder) endPhase(rank int, now sim.Time) {
	st := t.state(rank)
	if st.phase == "" {
		return
	}
	e := Event{Rank: rank, Kind: KindPhase, Label: st.phase, Start: st.phaseStart, End: now}
	st.phase = ""
	t.Add(e)
}

// currentPhase returns rank's open phase, or "" when none is open.
func (t *Recorder) currentPhase(rank int) string {
	if rank >= len(t.open) {
		return ""
	}
	return t.open[rank].phase
}

// End closes the collective at the given instant — its open phase first
// — and records it as an Event. Nil spans ignore End.
func (s *Span) End(now sim.Time) {
	if s == nil {
		return
	}
	t := s.rec
	st := t.state(s.rank)
	if st.coll != s {
		panic(fmt.Sprintf("trace: collective %q on rank %d ended twice", s.label, s.rank))
	}
	t.endPhase(s.rank, now)
	st.coll = nil
	t.Add(Event{
		Rank: s.rank, Kind: KindCollective, Label: s.label,
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
