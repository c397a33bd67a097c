// Package trace records what the simulated job did: typed, timestamped
// events (messages, shared-memory copies, compute, collectives) that can
// be summarized per rank or per kind, exported as CSV, or rendered as a
// compact text profile. Recording is optional and adds no cost to the
// simulation's virtual time.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dpml/internal/sim"
)

// Kind classifies an event.
type Kind string

// Event kinds recorded by the runtime.
const (
	KindSend       Kind = "send"
	KindRecv       Kind = "recv"
	KindShmCopy    Kind = "shmcopy"
	KindCompute    Kind = "compute"
	KindCollective Kind = "coll"
	// KindFallback marks a degraded-mode switch: a design abandoned its
	// preferred path mid-run (e.g. SHArP offload offline) and completed
	// the operation another way. Label names the path taken.
	KindFallback Kind = "fallback"
	// KindPhase is a span event: one named phase of a collective on one
	// rank (see Recorder.Phase). Label is the phase name and Phase is
	// always "": phases do not nest. A phase event contains the leaf
	// events recorded while it was open, and the phases of a collective
	// tile it.
	KindPhase Kind = "phase"
)

// Event is one recorded operation.
type Event struct {
	Rank  int
	Kind  Kind
	Label string // free-form: peer, spec, phase
	// Phase is the open phase on the event's rank at recording time (""
	// outside any phase). Stamped automatically by Add, which is how
	// every leaf event gets attributed to the DPML phase it ran in
	// without call sites knowing about phases.
	Phase string
	Start sim.Time
	End   sim.Time
	Bytes int
}

// Duration returns End - Start.
func (e Event) Duration() sim.Duration { return e.End.Sub(e.Start) }

// Recorder accumulates events into per-rank buffers. The zero value
// records nothing; create one with New. Add and the span methods are
// called from the recorded rank's simulation context: under a sharded
// kernel different ranks record concurrently, which is race-free because
// each rank only ever touches its own buffer and span state — provided
// the slices are pre-sized with Reserve (the MPI world does this), so no
// append ever grows the outer slices.
type Recorder struct {
	perRank [][]Event
	limit   int
	open    []rankState // per-rank open collective and phase (see span.go)

	// merged caches the canonical global ordering (see Events),
	// invalidated by length.
	merged    []Event
	mergedLen int
}

// New returns a Recorder that keeps at most limit events per rank
// (0 = unlimited). Hitting the cap stops recording on that rank rather
// than evicting, so prefixes stay intact for inspection.
func New(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Reserve pre-sizes the recorder for ranks. Required before recording
// from a sharded simulation (so concurrent ranks never grow the shared
// outer slices); optional otherwise.
func (t *Recorder) Reserve(ranks int) {
	if t == nil {
		return
	}
	for len(t.perRank) < ranks {
		t.perRank = append(t.perRank, nil)
	}
	for len(t.open) < ranks {
		t.open = append(t.open, rankState{})
	}
}

// Add records one event. Nil receivers and full recorders ignore it, so
// call sites need no guards.
func (t *Recorder) Add(e Event) {
	if t == nil {
		return
	}
	if e.Rank < 0 {
		panic(fmt.Sprintf("trace: event on rank %d", e.Rank))
	}
	for e.Rank >= len(t.perRank) {
		t.perRank = append(t.perRank, nil)
	}
	if t.limit > 0 && len(t.perRank[e.Rank]) >= t.limit {
		return
	}
	if e.End < e.Start {
		panic(fmt.Sprintf("trace: event ends before it starts: %+v", e))
	}
	if e.Phase == "" {
		e.Phase = t.currentPhase(e.Rank)
	}
	t.perRank[e.Rank] = append(t.perRank[e.Rank], e)
}

// Len returns the number of recorded events.
func (t *Recorder) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, evs := range t.perRank {
		n += len(evs)
	}
	return n
}

// Events returns the recorded events in the canonical global order:
// by completion time, ties broken by rank, then per-rank recording
// order. Each rank records its own events in nondecreasing End order
// (events are added when they finish), so this order is well defined —
// and, unlike raw recording order, it is identical for every shard
// count, because it depends only on virtual timestamps and ranks, not on
// which kernel interleaving produced them.
func (t *Recorder) Events() []Event {
	if t == nil {
		return nil
	}
	n := t.Len()
	if t.merged != nil && t.mergedLen == n {
		return t.merged
	}
	out := make([]Event, 0, n)
	for _, evs := range t.perRank {
		out = append(out, evs...)
	}
	// Stable sort of the rank-major concatenation: ties on End keep
	// (rank, per-rank recording order), the canonical tiebreak.
	sort.SliceStable(out, func(i, j int) bool { return out[i].End < out[j].End })
	t.merged, t.mergedLen = out, n
	return out
}

// KindStats summarizes one event kind.
type KindStats struct {
	Kind  Kind
	Count int
	Bytes int64
	Busy  sim.Duration // summed durations across ranks
}

// ByKind aggregates counts, bytes, and busy time per kind, sorted by
// kind name.
func (t *Recorder) ByKind() []KindStats {
	acc := map[Kind]*KindStats{}
	for _, e := range t.Events() {
		s, ok := acc[e.Kind]
		if !ok {
			s = &KindStats{Kind: e.Kind}
			acc[e.Kind] = s
		}
		s.Count++
		s.Bytes += int64(e.Bytes)
		s.Busy += e.Duration()
	}
	out := make([]KindStats, 0, len(acc))
	for _, s := range acc {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// RankBusy returns each rank's total busy time in the given kinds (all
// kinds when none given), indexed by rank (length = max rank + 1).
func (t *Recorder) RankBusy(kinds ...Kind) []sim.Duration {
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []sim.Duration
	for _, e := range t.Events() {
		if len(want) > 0 && !want[e.Kind] {
			continue
		}
		for e.Rank >= len(out) {
			out = append(out, 0)
		}
		out[e.Rank] += e.Duration()
	}
	return out
}

// csvField quotes a free-form field per RFC 4180: fields containing
// commas, quotes, or line breaks are wrapped in double quotes with inner
// quotes doubled, so any label round-trips through a standard CSV reader.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteCSV exports the events as CSV (rank, kind, label, phase, start_ns,
// end_ns, bytes). Labels and phases are RFC 4180-quoted, so embedded
// commas, quotes, and newlines survive a round trip through encoding/csv.
func (t *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "rank,kind,label,phase,start_ns,end_ns,bytes"); err != nil {
		return err
	}
	for _, e := range t.Events() {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d\n",
			e.Rank, csvField(string(e.Kind)), csvField(e.Label), csvField(e.Phase),
			int64(e.Start), int64(e.End), e.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a human-readable profile: per-kind totals and the
// busiest ranks.
func (t *Recorder) Summary(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events\n", t.Len())
	for _, s := range t.ByKind() {
		fmt.Fprintf(w, "  %-8s count=%-8d bytes=%-12d busy=%v\n", s.Kind, s.Count, s.Bytes, s.Busy)
	}
	busy := t.RankBusy()
	if len(busy) == 0 {
		return
	}
	max, argmax := sim.Duration(-1), 0
	var total sim.Duration
	for r, d := range busy {
		total += d
		if d > max {
			max, argmax = d, r
		}
	}
	fmt.Fprintf(w, "  busiest rank: %d (%v); mean busy: %v\n",
		argmax, max, total/sim.Duration(len(busy)))
}
