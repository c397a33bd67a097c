package mpi

import (
	"testing"

	"dpml/internal/sim"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

func TestTracingRecordsP2PAndCompute(t *testing.T) {
	rec := trace.New(0)
	job := topology.MustJob(topology.ClusterB(), 2, 1)
	w := NewWorld(job, Config{Trace: rec})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewVector(Float64, 128)
		if r.Rank() == 0 {
			r.Send(c, 1, 0, v)
			r.Compute(4096)
		} else {
			r.Recv(c, 0, 0, v)
			r.MemCopy(false, 256)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	if kinds[trace.KindSend] != 1 || kinds[trace.KindRecv] != 1 {
		t.Fatalf("p2p events = %v", kinds)
	}
	if kinds[trace.KindCompute] != 1 || kinds[trace.KindShmCopy] != 1 {
		t.Fatalf("compute/shm events = %v", kinds)
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindSend && (e.Rank != 0 || e.Label != "->1" || e.Bytes != 1024) { // 128 float64
			t.Fatalf("send event %+v, want rank 0 label ->1 with 1024 bytes", e)
		}
	}
	// Event durations must be positive and within the run.
	for _, e := range rec.Events() {
		if e.End < e.Start || e.End > w.Now() {
			t.Fatalf("event out of range: %+v", e)
		}
	}
}

func TestTracingOffByDefault(t *testing.T) {
	w := smallWorld(t, topology.ClusterB(), 2, 1, Config{})
	if w.Tracer() != nil {
		t.Fatal("tracer present without config")
	}
	err := w.Run(func(r *Rank) error {
		v := NewVector(Float64, 8)
		if r.Rank() == 0 {
			r.Send(w.CommWorld(), 1, 0, v)
		} else {
			r.Recv(w.CommWorld(), 0, 0, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func runJittered(t *testing.T, jitter sim.Duration, seed uint64) sim.Time {
	t.Helper()
	job := topology.MustJob(topology.ClusterB(), 2, 2)
	w := NewWorld(job, Config{Jitter: jitter, JitterSeed: seed})
	err := w.Run(func(r *Rank) error {
		c := w.CommWorld()
		v := NewPhantom(Float32, 1024)
		for i := 0; i < 10; i++ {
			r.Allreduce(c, AlgRecursiveDoubling, Sum, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Now()
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	a := runJittered(t, 5*sim.Microsecond, 42)
	b := runJittered(t, 5*sim.Microsecond, 42)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	c := runJittered(t, 5*sim.Microsecond, 43)
	if a == c {
		t.Fatalf("different seeds identical: %v", a)
	}
}

func TestJitterSlowsThingsDown(t *testing.T) {
	quiet := runJittered(t, 0, 1)
	noisy := runJittered(t, 20*sim.Microsecond, 1)
	if noisy <= quiet {
		t.Fatalf("noise (%v) did not slow the run (quiet %v)", noisy, quiet)
	}
}

func TestZeroJitterMatchesDefault(t *testing.T) {
	a := runJittered(t, 0, 0)
	b := runJittered(t, 0, 999) // seed irrelevant without jitter
	if a != b {
		t.Fatalf("zero jitter not seed-independent: %v vs %v", a, b)
	}
}
