package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dpml/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite golden.json from this build")

// testColls are the test-sized collectives per pass of the allreduce
// workloads; golden.json holds their timelines too.
var testColls = map[string]int{
	"allreduce-10k":           1,
	"allreduce-10k-shards2":   1,
	"allreduce-64-sharp-256B": 200,
	"allreduce-64-real-1MB":   2,
}

// testWorkloads is the workload table at test size. The table workload
// regenerates its figure at quick scale and compares it with
// testdata/<figure>-quick.txt, made by
// `go run ./cmd/dpml-bench -figure fig5 -quick -iters 2 -warmup 1`.
func testWorkloads() []workload {
	ws := append([]workload(nil), workloads...)
	for i := range ws {
		w := &ws[i]
		if w.figure != "" {
			w.quick, w.ref = true, "testdata/"+w.figure+"-quick.txt"
			continue
		}
		w.colls = testColls[w.name]
	}
	return ws
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}

func TestDeclaredMetrics(t *testing.T) {
	decl := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for n, u := range units {
		if !name.MatchString(n) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", n)
		}
		if decl[n] != u {
			t.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", n, u, decl[n])
		}
	}
	for n := range decl {
		if _, ok := units[n]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which the benchmark never prints", n)
		}
	}
}

// TestSmoke runs one untraced and one traced pass of every workload at
// test size and checks the result.
func TestSmoke(t *testing.T) {
	decl := declared(t)
	for _, w := range testWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			ref, err := loadRefs(w)
			if err != nil {
				t.Fatal(err)
			}
			res, plain, traced, err := measure(w, 1, time.Nanosecond, true, ref)
			if err != nil {
				t.Fatal(err)
			}
			if plain != 1 || traced != 1 {
				t.Errorf("ran %d untraced and %d traced passes, want 1 and 1", plain, traced)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d, want every operation to pass", res.Correct, res.Failed, res.Attempted)
			}
			for n, u := range decl {
				if m, ok := res.Metrics[n]; !ok || m.Unit != u {
					t.Errorf("metric %s: got %+v (present %v), want unit %q", n, m, ok, u)
				}
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(decl))
			}
			if v := res.Metrics["go.goroutines_leaked"].Value; v != 0 {
				t.Errorf("%v goroutines leaked", v)
			}
			for _, n := range endToEnd {
				if v := res.Metrics[n].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, v)
				}
			}
		})
	}
}

// TestCorruptReferenceFailsEveryOperation checks that verification feeds
// failed: a corrupted golden timeline, oracle or reference table must
// fail every operation.
func TestCorruptReferenceFailsEveryOperation(t *testing.T) {
	for _, w := range testWorkloads() {
		if strings.HasPrefix(w.name, "allreduce-10k") {
			continue // the same timeline check as the sharp workload, on a bigger world
		}
		t.Run(w.name, func(t *testing.T) {
			ref, err := loadRefs(w)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case w.figure != "":
				ref.table = "x" + strings.ReplaceAll(ref.table, "\n", "\nx")
			case w.real:
				ref.sum = func(in []*mpi.Vector) []float32 {
					s := serialSum(in)
					for i := range s {
						s[i]++
					}
					return s
				}
			default:
				g := ref.golden[w.goldenKey()]
				g.FinalNS++
				ref.golden = map[string]timeline{w.goldenKey(): g}
			}
			res, _, _, err := measure(w, 1, time.Nanosecond, false, ref)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
				t.Errorf("correct=%v failed=%d attempted=%d, want every operation failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// TestShardedRealPayload runs the real-payload workload on two kernel
// shards, where rank bodies on different threads write their result
// slots concurrently; run it under -race.
func TestShardedRealPayload(t *testing.T) {
	w, _ := lookup("allreduce-64-real-1MB")
	w.shards, w.colls = 2, testColls[w.name]
	ref, err := loadRefs(w)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(7, ref)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.ops != w.colls {
		t.Errorf("failed %d of %d collectives, want 0 of %d", p.failed, p.ops, w.colls)
	}
}

// TestGolden records the virtual timeline of every phantom workload, at
// benchmark and test size, into golden.json when run with -update.
// Workloads sharing a timeline name must produce the same timeline.
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	golden := map[string]timeline{}
	from := map[string]string{}
	for _, w := range append(testWorkloads(), workloads...) {
		if w.figure != "" || w.real {
			continue
		}
		p, err := w.pass(1, refs{})
		if err != nil {
			t.Fatal(err)
		}
		key := w.goldenKey()
		if g, ok := golden[key]; ok && g != p.timeline {
			t.Fatalf("%s: timeline %+v differs from %s's %+v", w.name, p.timeline, from[key], g)
		}
		golden[key], from[key] = p.timeline, w.name
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
