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
package sweep

import (
	"errors"
	"fmt"
	"runtime"
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
// by the number of jobs) and returns the results in submission order:
// out[i] is the value produced by jobs[i] regardless of which worker ran
// it or when it finished. All jobs are attempted even after a failure;
// the returned error aggregates every job error, each prefixed with its
// index. A panic inside a job is recovered and reported as that job's
// error.
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
		for i, job := range jobs {
			out[i], errs[i] = runOne(i, job)
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
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i], errs[i] = runOne(i, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// runOne invokes one job with panic capture.
func runOne[T any](i int, job Job[T]) (out T, err error) {
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

// Map runs fn over items through the pool, preserving item order.
func Map[In, Out any](workers int, items []In, fn func(int, In) (Out, error)) ([]Out, error) {
	jobs := make([]Job[Out], len(items))
	for i, item := range items {
		i, item := i, item
		jobs[i] = func() (Out, error) { return fn(i, item) }
	}
	return Run(workers, jobs)
}
