package trace

import (
	"strings"
	"testing"

	"dpml/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := New(0)
	r.Add(Event{Rank: 0, Kind: KindSend, Label: "->1", Start: 0, End: 100, Bytes: 64})
	r.Add(Event{Rank: 1, Kind: KindRecv, Label: "<-0", Start: 0, End: 150, Bytes: 64})
	r.Add(Event{Rank: 0, Kind: KindCompute, Start: 100, End: 300, Bytes: 1024})
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	stats := r.ByKind()
	if len(stats) != 3 {
		t.Fatalf("ByKind returned %d kinds", len(stats))
	}
	// Sorted by kind: coll < compute < recv < send.
	if stats[0].Kind != KindCompute || stats[1].Kind != KindRecv || stats[2].Kind != KindSend {
		t.Fatalf("kind order %v", stats)
	}
	if stats[0].Busy != 200 || stats[0].Bytes != 1024 {
		t.Fatalf("compute stats %+v", stats[0])
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Rank: 0, Kind: KindSend})
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder recorded something")
	}
	if len(r.ByKind()) != 0 || len(r.RankBusy()) != 0 {
		t.Fatal("nil recorder summarized something")
	}
}

func TestRecorderLimit(t *testing.T) {
	// The limit is per rank: rank 0's third event is dropped while
	// rank 1 keeps recording.
	r := New(2)
	for i := 0; i < 3; i++ {
		r.Add(Event{Rank: 0, Kind: KindSend, End: sim.Time(i)})
	}
	r.Add(Event{Rank: 1, Kind: KindSend})
	if r.Len() != 3 {
		t.Fatalf("limit ignored: %d events", r.Len())
	}
	evs := r.Events()
	if evs[0].Rank != 0 || evs[1].Rank != 1 || evs[2].Rank != 0 {
		t.Fatalf("limit must keep each rank's prefix: %+v", evs)
	}
}

func TestEventsCanonicalOrder(t *testing.T) {
	// Events merge by (End, rank, per-rank recording order) regardless
	// of the order ranks recorded them in.
	r := New(0)
	r.Add(Event{Rank: 1, Kind: KindSend, End: 50})
	r.Add(Event{Rank: 0, Kind: KindSend, End: 10})
	r.Add(Event{Rank: 1, Kind: KindSend, End: 50})
	r.Add(Event{Rank: 0, Kind: KindSend, End: 50})
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.Events()
	want := []struct {
		rank int
		end  sim.Time
	}{{0, 10}, {0, 50}, {1, 50}, {1, 50}}
	for i, w := range want {
		if evs[i].Rank != w.rank || evs[i].End != w.end {
			t.Fatalf("event %d = rank %d end %v, want rank %d end %v",
				i, evs[i].Rank, evs[i].End, w.rank, w.end)
		}
	}
}

func TestBackwardsEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("event ending before start accepted")
		}
	}()
	New(0).Add(Event{Start: 10, End: 5})
}

func TestRankBusyFiltering(t *testing.T) {
	r := New(0)
	r.Add(Event{Rank: 0, Kind: KindSend, Start: 0, End: 10})
	r.Add(Event{Rank: 0, Kind: KindCompute, Start: 10, End: 40})
	r.Add(Event{Rank: 2, Kind: KindCompute, Start: 0, End: 5})
	all := r.RankBusy()
	if len(all) != 3 || all[0] != 40 || all[1] != 0 || all[2] != 5 {
		t.Fatalf("RankBusy = %v", all)
	}
	onlyCompute := r.RankBusy(KindCompute)
	if onlyCompute[0] != 30 || onlyCompute[2] != 5 {
		t.Fatalf("filtered RankBusy = %v", onlyCompute)
	}
}

func TestCSVAndSummary(t *testing.T) {
	r := New(0)
	r.Add(Event{Rank: 0, Kind: KindSend, Label: "a,b", Start: 1, End: 2, Bytes: 3})
	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.Contains(out, "rank,kind,label,phase,start_ns,end_ns,bytes") ||
		!strings.Contains(out, `0,send,"a,b",,1,2,3`) {
		t.Fatalf("csv:\n%s", out)
	}
	var sum strings.Builder
	r.Summary(&sum)
	if !strings.Contains(sum.String(), "1 events") || !strings.Contains(sum.String(), "send") {
		t.Fatalf("summary:\n%s", sum.String())
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: sim.Time(100), End: sim.Time(350)}
	if e.Duration() != 250 {
		t.Fatalf("Duration = %v", e.Duration())
	}
}
