// Package metrics is a minimal insertion-ordered metrics registry: named
// float64 gauges/counters snapshotted from the simulator at the end of a
// run. It exists so every layer (kernel, fabric, MPI runtime, trace) can
// export its counters through one structured surface instead of ad-hoc
// report structs, and so tools can render or diff them uniformly.
//
// The registry is write-mostly and tiny; it is not a hot-path object.
// Nothing in the simulation reads it, so filling it cannot perturb
// virtual time.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Metric is one named value with an optional unit ("ns", "bytes",
// "events/s", "" for dimensionless).
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Registry holds metrics in insertion order (so reports group naturally
// by the subsystem that registered them).
type Registry struct {
	metrics []Metric
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

// Set records value under name, creating the metric on first use and
// overwriting on repeats (the unit from the first Set wins).
func (r *Registry) Set(name, unit string, value float64) {
	if i, ok := r.index[name]; ok {
		r.metrics[i].Value = value
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, Metric{Name: name, Unit: unit, Value: value})
}

// Get returns the value of name and whether it exists.
func (r *Registry) Get(name string) (float64, bool) {
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.metrics[i].Value, true
}

// WriteText renders the registry as aligned "name value unit" lines in
// insertion order. Values that are whole numbers print without a
// fractional part.
func (r *Registry) WriteText(w io.Writer) {
	width := 0
	for _, m := range r.metrics {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range r.metrics {
		val := formatValue(m.Value)
		if m.Unit != "" {
			fmt.Fprintf(w, "%-*s  %s %s\n", width, m.Name, val, m.Unit)
		} else {
			fmt.Fprintf(w, "%-*s  %s\n", width, m.Name, val)
		}
	}
}

func formatValue(v float64) string {
	if v == float64(int64(v)) { //dpml:allow floateq -- exact integer-representability test, tolerance would be wrong
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
