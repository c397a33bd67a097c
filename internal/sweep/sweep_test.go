package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		jobs := make([]Job[int], 50)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) { return i * i, nil }
		}
		out, err := Run(workers, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := Run[int](4, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v, %v", out, err)
	}
}

func TestRunAggregatesErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job[int]{
		func() (int, error) { return 1, nil },
		func() (int, error) { return 0, fmt.Errorf("first: %w", boom) },
		func() (int, error) { return 3, nil },
		func() (int, error) { return 0, errors.New("second") },
	}
	out, err := Run(4, jobs)
	if err == nil {
		t.Fatal("want aggregated error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is lost the cause: %v", err)
	}
	for _, want := range []string{"job 1", "first", "job 3", "second"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// Successful jobs still deliver their results.
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("successful results lost: %v", out)
	}
}

func TestRunCapturesPanics(t *testing.T) {
	jobs := []Job[string]{
		func() (string, error) { return "ok", nil },
		func() (string, error) { panic("kaboom") },
	}
	for _, workers := range []int{1, 4} {
		out, err := Run(workers, jobs)
		if err == nil || !strings.Contains(err.Error(), "job 1 panicked: kaboom") {
			t.Fatalf("workers=%d: panic not captured: %v", workers, err)
		}
		if out[0] != "ok" {
			t.Fatalf("workers=%d: sibling result lost: %v", workers, out)
		}
	}
}

func TestRunActuallyRunsConcurrently(t *testing.T) {
	const workers = 4
	var cur atomic.Int32
	full := make(chan struct{})
	jobs := make([]Job[struct{}], 16)
	for i := range jobs {
		jobs[i] = func() (struct{}, error) {
			// Hold every job until workers of them are in flight: a pool
			// that runs fewer at once times out here instead of hanging.
			if cur.Add(1) == workers {
				close(full)
			}
			select {
			case <-full:
				return struct{}{}, nil
			case <-time.After(10 * time.Second):
				return struct{}{}, errors.New("fewer than workers jobs in flight")
			}
		}
	}
	if _, err := Run(workers, jobs); err != nil {
		t.Fatal(err)
	}
}

func TestRunStartsLastJobFirst(t *testing.T) {
	const n = 9
	var mu sync.Mutex
	var started []int
	var parallel bool
	both := make(chan struct{})
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			mu.Lock()
			started = append(started, i)
			if len(started) == 2 {
				close(both)
			}
			mu.Unlock()
			// With two workers, neither of the first two jobs finishes
			// before the other starts, so they are the first two the
			// pool handed out.
			if parallel {
				select {
				case <-both:
				case <-time.After(10 * time.Second):
					return i, errors.New("second worker never started")
				}
			}
			if i%2 == 1 {
				return i, fmt.Errorf("odd %d", i)
			}
			return i, nil
		}
	}
	for _, workers := range []int{1, 2} {
		started, parallel = nil, workers > 1
		both = make(chan struct{})
		out, err := Run(workers, jobs)
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		for i := 1; i < n; i += 2 {
			if want := fmt.Sprintf("job %d: odd %d", i, i); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: error %v missing %q", workers, err, want)
			}
		}
		switch workers {
		case 1:
			for k, i := range started {
				if i != n-1-k {
					t.Fatalf("serial start order %v, want %d down to 0", started, n-1)
				}
			}
		case 2:
			first := map[int]bool{started[0]: true, started[1]: true}
			if !first[n-1] || !first[n-2] {
				t.Fatalf("first two jobs started %v, want %d and %d", started[:2], n-1, n-2)
			}
		}
	}
}

// sink keeps the test's garbage chunks from being optimised away.
var sink []byte

func forcedCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// churn allocates n bytes in chunks that die at once, so a collection
// during it never counts them live.
func churn(n int) {
	const chunk = 64 << 10
	for ; n > 0; n -= chunk {
		sink = make([]byte, chunk)
	}
	sink = nil
}

func TestRunCollectsOnlyAfterAWorldSizedJob(t *testing.T) {
	// A resident heap of a few MB, as a figure process has, so that the
	// garbage a collection finds in flight is small next to what is live.
	resident := make([]byte, 4<<20)
	defer runtime.KeepAlive(resident)
	forced := func(jobs ...Job[int]) uint64 {
		t.Helper()
		runtime.GC()
		before := forcedCycles()
		if _, err := Run(1, jobs); err != nil {
			t.Fatal(err)
		}
		return forcedCycles() - before
	}
	tiny := make([]Job[int], 100)
	for i := range tiny {
		i := i
		tiny[i] = func() (int, error) { return i, nil }
	}
	if got := forced(tiny...); got != 0 {
		t.Fatalf("100 tiny jobs forced %d collections, want 0", got)
	}

	live := liveHeap()
	// A job that allocates twice the live heap but keeps none of it
	// leaves the live heap where it was: nothing to collect.
	garbage := func() (int, error) {
		churn(int(2 * live))
		return 0, nil
	}
	if got := forced(garbage); got != 0 {
		t.Fatalf("a job churning 2x the live heap forced %d collections, want 0", got)
	}
	// A job that builds a world several times the live heap, and
	// allocates enough while it stands for a collection to count it live,
	// leaves that world dead when it returns.
	world := func() (int, error) {
		w := make([][]byte, 4*live>>16)
		for i := range w {
			w[i] = make([]byte, 64<<10)
		}
		churn(int(8 * live))
		runtime.KeepAlive(w)
		return len(w), nil
	}
	if got := forced(world); got != 1 {
		t.Fatalf("a job building a world of 4x the live heap forced %d collections, want 1", got)
	}
}

func TestWorkersClamp(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestMap(t *testing.T) {
	items := []string{"a", "bb", "ccc"}
	out, err := Map(2, items, func(i int, s string) (int, error) {
		return i * len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 6}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := Map(2, []int{1, 2}, func(i, v int) (int, error) {
		if v == 2 {
			return 0, errors.New("nope")
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("err = %v", err)
	}
}
