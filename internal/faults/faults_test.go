package faults

import (
	"reflect"
	"testing"

	"dpml/internal/sim"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("straggler@0.25,link")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Classes, []Class{ClassStraggler, ClassLink}) {
		t.Fatalf("classes = %v", spec.Classes)
	}
	if want := (0.25 + DefaultIntensity) / 2; spec.Intensity != want {
		t.Fatalf("intensity = %g, want %g", spec.Intensity, want)
	}

	all, err := ParseSpec("all@0.8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all.Classes, Classes()) || all.Intensity != 0.8 {
		t.Fatalf("all = %+v", all)
	}

	if s, err := ParseSpec(""); err != nil || s != nil {
		t.Fatalf("empty spec: %v %v", s, err)
	}

	for _, bad := range []string{"bogus", "straggler@0", "straggler@1.5", "link@x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}

	// Duplicate classes collapse.
	dup, err := ParseSpec("link,all")
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.Classes) != len(Classes()) {
		t.Fatalf("dup classes = %v", dup.Classes)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("straggler,nic@0.5")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip %+v -> %q -> %+v", spec, spec.String(), again)
	}
}

func TestInstantiateDeterministic(t *testing.T) {
	sh := Shape{Ranks: 64, Nodes: 8}
	spec := &Spec{Classes: Classes(), Intensity: 0.5, Seed: 42}
	a, b := spec.Instantiate(sh), spec.Instantiate(sh)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec gave different plans:\n%+v\n%+v", a, b)
	}
	other := &Spec{Classes: Classes(), Intensity: 0.5, Seed: 43}
	if reflect.DeepEqual(a, other.Instantiate(sh)) {
		t.Fatal("different seeds gave identical plans")
	}
}

// TestInstantiatePinned pins one seeded plan. Every committed faulted
// table is made from plans this generator draws, so a change that
// shifts a class's stream (dropping the retired NIC-index draw, say)
// fails here and not only when the tables are regenerated.
func TestInstantiatePinned(t *testing.T) {
	got := (&Spec{Classes: Classes(), Intensity: 0.5, Seed: 42}).Instantiate(Shape{Ranks: 64, Nodes: 8})
	want := &Plan{
		Stragglers: []Straggler{
			{Rank: 2, Factor: 4.6288478406539255},
			{Rank: 32, Factor: 3.707328744376765},
			{Rank: 37, Factor: 5.663075816406846},
			{Rank: 41, Factor: 4.22300793073746},
			{Rank: 42, Factor: 4.45617122030566},
			{Rank: 46, Factor: 5.978651887204602},
			{Rank: 52, Factor: 3.444560702999617},
			{Rank: 61, Factor: 4.553885134199168},
		},
		Links: []LinkFault{{Node: 5, Factor: 0.6018654060069584}},
		NICs:  []NICThrottle{{Node: 4, Factor: 8.091319080223354}},
		Sharp: []SharpOutage{{}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 42 plan drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestInstantiateClassIndependence(t *testing.T) {
	// Enabling a second class must not shift the first class's draw.
	sh := Shape{Ranks: 64, Nodes: 8}
	solo := (&Spec{Classes: []Class{ClassStraggler}, Intensity: 0.5, Seed: 7}).Instantiate(sh)
	both := (&Spec{Classes: []Class{ClassStraggler, ClassLink}, Intensity: 0.5, Seed: 7}).Instantiate(sh)
	if !reflect.DeepEqual(solo.Stragglers, both.Stragglers) {
		t.Fatalf("straggler draw shifted when links were enabled:\n%+v\n%+v", solo.Stragglers, both.Stragglers)
	}
	if len(both.Links) == 0 {
		t.Fatal("no link faults generated")
	}
}

func TestInstantiateShapesAndValidity(t *testing.T) {
	for _, sh := range []Shape{
		{Ranks: 2, Nodes: 1},
		{Ranks: 448, Nodes: 16},
	} {
		for _, intensity := range []float64{0.1, 0.5, 1.0} {
			spec := &Spec{Classes: Classes(), Intensity: intensity, Seed: 1}
			p := spec.Instantiate(sh)
			if p.Empty() {
				t.Fatalf("empty plan for %+v @ %g", sh, intensity)
			}
			if err := p.Validate(sh); err != nil {
				t.Fatalf("%+v @ %g: %v", sh, intensity, err)
			}
		}
	}
}

func TestInstantiateHorizonBoundsWindows(t *testing.T) {
	h := sim.DurationOfSeconds(1)
	spec := &Spec{Classes: Classes(), Intensity: 1, Seed: 3, Horizon: h}
	p := spec.Instantiate(Shape{Ranks: 16, Nodes: 4})
	check := func(start, end sim.Time) {
		t.Helper()
		if end == 0 {
			t.Fatalf("open-ended window with horizon set: [%v, 0)", start)
		}
		if end <= start {
			t.Fatalf("empty window [%v, %v)", start, end)
		}
	}
	for _, s := range p.Stragglers {
		check(s.Start, s.End)
	}
	for _, l := range p.Links {
		check(l.Start, l.End)
	}
	for _, n := range p.NICs {
		check(n.Start, n.End)
	}
	for _, o := range p.Sharp {
		check(o.Start, o.End)
	}

	// No horizon: single open-ended window from t=0.
	open := (&Spec{Classes: []Class{ClassStraggler}, Intensity: 0.5, Seed: 3}).Instantiate(Shape{Ranks: 16, Nodes: 4})
	for _, s := range open.Stragglers {
		if s.Start != 0 || s.End != 0 {
			t.Fatalf("open-ended plan has bounded window %+v", s)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	sh := Shape{Ranks: 4, Nodes: 2}
	bad := []*Plan{
		{Stragglers: []Straggler{{Rank: 9, Factor: 2}}},
		{Stragglers: []Straggler{{Rank: 0, Factor: 0.5}}},
		{Stragglers: []Straggler{{Rank: 0, Factor: 2, Start: 10, End: 5}}},
		{Links: []LinkFault{{Node: 5, Factor: 0.5}}},
		{Links: []LinkFault{{Node: 0, Factor: 0}}},
		{NICs: []NICThrottle{{Node: 0, Factor: 0.1}}},
		{Sharp: []SharpOutage{{Start: 4, End: 4}}},
	}
	for i, p := range bad {
		if err := p.Validate(sh); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
	if err := (*Plan)(nil).Validate(sh); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	if !(*Plan)(nil).Empty() {
		t.Error("nil plan not empty")
	}
}
