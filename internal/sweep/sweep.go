// Package sweep fans independent simulation jobs across host cores.
//
// Every figure in the paper's evaluation is a sweep of deterministic,
// mutually independent simulated jobs (one virtual cluster per series or
// sweep point), so the reproduction pipeline parallelises trivially: jobs
// share no mutable state, and results are collected in submission order,
// which keeps every rendered table byte-identical whatever the worker
// count. A panicking job is captured and reported as an error rather
// than tearing down the process, and errors from all jobs are aggregated
// so one failed cell does not hide another.
//
// Jobs start from the last submitted down to the first. Callers list
// their jobs in ascending order of the swept parameter (message size,
// leaders, nodes or pairs), so the last job is the longest, and running
// it first is longest-processing-time-first scheduling: the pool's tail
// is its cheapest jobs, not one large world running alone while the
// other workers idle. A caller whose jobs get cheaper along its natural
// order submits them reversed.
//
// A finished job's world is garbage, but the runtime paces its next
// collection from a live heap that still counts it, so with the longest
// jobs first the next world would be built beside it. After a job whose
// world makes up most of the live heap, the pool collects before it
// starts the next (see runOne).
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
)

// A Job computes one independent result.
type Job[T any] func() (T, error)

// Workers clamps a -j style request: n <= 0 selects GOMAXPROCS, anything
// else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes jobs on up to workers goroutines (clamped by Workers and
// by the number of jobs), starting them from jobs[len(jobs)-1] down to
// jobs[0], and returns the results in submission order: out[i] is the
// value produced by jobs[i] regardless of which worker ran it or when it
// finished. All jobs are attempted even after a failure; the returned
// error aggregates every job error, each prefixed with its index. A
// panic inside a job is recovered and reported as that job's error.
func Run[T any](workers int, jobs []Job[T]) ([]T, error) {
	out := make([]T, len(jobs))
	if len(jobs) == 0 {
		return out, nil
	}
	workers = Workers(workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	errs := make([]error, len(jobs))
	if workers == 1 {
		// Serial fast path: no goroutines, deterministic stack traces.
		for i := len(jobs) - 1; i >= 0; i-- {
			out[i], errs[i] = runOne(i, jobs[i])
		}
		return out, errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := len(jobs) - int(next.Add(1))
				if i < 0 {
					return
				}
				out[i], errs[i] = runOne(i, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// runOne invokes one job with panic capture, then collects if the live
// heap more than doubled while the job ran: most of what the last
// collection found live is then the world this job built, which is dead
// now, and the runtime would pace its next collection from a live heap
// that still counts it. Jobs whose worlds are small next to what stays
// live never pass that bar, so sweeps of small worlds pay nothing.
func runOne[T any](i int, job Job[T]) (out T, err error) {
	before := liveHeap()
	defer func() {
		if liveHeap() > 2*before {
			runtime.GC()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: job %d panicked: %v", i, r)
		}
	}()
	out, err = job()
	if err != nil {
		err = fmt.Errorf("job %d: %w", i, err)
	}
	return out, err
}

// liveHeap reads the heap the last collection marked live, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Map runs fn over items through the pool, preserving item order.
func Map[In, Out any](workers int, items []In, fn func(int, In) (Out, error)) ([]Out, error) {
	jobs := make([]Job[Out], len(items))
	for i, item := range items {
		i, item := i, item
		jobs[i] = func() (Out, error) { return fn(i, item) }
	}
	return Run(workers, jobs)
}
