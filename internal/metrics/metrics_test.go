package metrics

import (
	"strings"
	"testing"
)

func TestSetAddGet(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Get("missing"); ok {
		t.Error("Get on empty registry reported a metric")
	}
	r.Set("a", "bytes", 10)
	r.Set("a", "events", 20) // overwrite value; first unit wins
	r.Set("b", "", 3.5)
	if v, ok := r.Get("a"); !ok || v != 20 {
		t.Errorf("a = %g, %v; want 20, true", v, ok)
	}
	if v, ok := r.Get("b"); !ok || v != 3.5 {
		t.Errorf("b = %g, %v; want 3.5, true", v, ok)
	}
	if len(r.metrics) != 2 {
		t.Errorf("%d metrics, want 2", len(r.metrics))
	}
	if m := r.metrics; m[0].Name != "a" || m[0].Unit != "bytes" || m[1].Name != "b" {
		t.Errorf("order/units wrong: %+v", m)
	}
}

func TestInsertionOrderSurvivesOverwrite(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "m", "a"} {
		r.Set(n, "", 1)
	}
	r.Set("z", "", 2)
	got := r.metrics
	for i, want := range []string{"z", "m", "a"} {
		if got[i].Name != want {
			t.Fatalf("order[%d] = %q, want %q", i, got[i].Name, want)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Set("sim.events", "", 1234)
	r.Set("link.util", "", 0.25)
	r.Set("net.bytes", "bytes", 1e6)
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{"sim.events  1234\n", "link.util   0.25\n", "net.bytes   1000000 bytes\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"},
		{0.5, "0.5"}, {0.1234, "0.1234"}, {0.12345, "0.1235"}, {1.50, "1.5"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}
