package trace

import (
	"encoding/csv"
	"strings"
	"testing"

	"dpml/internal/sim"
)

// FuzzWriteCSVRoundTrip feeds arbitrary label/phase strings through the
// CSV exporter and a standard reader: the export must always parse, with
// every field intact.
func FuzzWriteCSVRoundTrip(f *testing.F) {
	f.Add("plain", "copy-in")
	f.Add("a,b", "x\"y")
	f.Add("line\nbreak", "cr\rhere")
	f.Add(`"`, "")
	f.Add(",,,", "\n\n")
	f.Fuzz(func(t *testing.T, label, phase string) {
		// encoding/csv normalizes \r\n to \n inside quoted fields (RFC
		// 4180 says bare CR is not part of the grammar), so skip inputs a
		// compliant reader cannot represent losslessly.
		if strings.Contains(label, "\r") || strings.Contains(phase, "\r") {
			t.Skip("CR normalization is reader-defined")
		}
		r := New(0)
		r.Add(Event{Rank: 1, Kind: KindRecv, Label: label, Phase: phase,
			Start: 5, End: 9, Bytes: 42})
		var b strings.Builder
		if err := r.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
		if err != nil {
			t.Fatalf("unreadable CSV for label %q phase %q: %v", label, phase, err)
		}
		if len(rows) != 2 {
			t.Fatalf("got %d rows", len(rows))
		}
		if rows[1][2] != label || rows[1][3] != phase {
			t.Fatalf("round trip: label %q -> %q, phase %q -> %q",
				label, rows[1][2], phase, rows[1][3])
		}
	})
}

// FuzzSpanStamping interleaves span begins/ends driven by fuzz bytes:
// the recorder must never corrupt its stacks, and events must never be
// stamped with a phase that was not open.
func FuzzSpanStamping(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := New(0)
		var stacks [2][]*Span
		now := sim.Time(0)
		for _, b := range prog {
			rank := int(b>>1) & 1
			now += 10
			if b&1 == 0 {
				sp := r.BeginSpan(rank, "p", now)
				stacks[rank] = append(stacks[rank], sp)
			} else if n := len(stacks[rank]); n > 0 {
				stacks[rank][n-1].End(now)
				stacks[rank] = stacks[rank][:n-1]
			}
			r.Add(Event{Rank: rank, Kind: KindCompute, Start: now, End: now})
		}
		for _, e := range r.Events() {
			if e.Kind == KindCompute && e.Phase != "" && e.Phase != "p" {
				t.Fatalf("impossible phase stamp %q", e.Phase)
			}
		}
	})
}
