// Package runner executes independent simulation jobs with bounded
// parallelism. Experiment-grid cells are embarrassingly parallel — every
// run owns its engine and PRNG — so on multi-core machines the grid fans
// them out across goroutines.
//
// Determinism is preserved by construction: each job writes only to its
// own index of a pre-sized result slice, and callers fold results in index
// order, so the output is identical regardless of scheduling.
//
// A Budget bounds how many jobs run at once, by cores and additionally by
// memory — each grid cell owns a full engine whose footprint scales with
// its node count, and at large grids memory, not cores, is the wall hit
// first. The bound never affects results: cell results fold in index
// order.
package runner

import (
	"fmt"
	"runtime"
	"sync"
)

// Budget describes the resources a fan-out may consume: a goroutine
// budget for concurrent jobs, and an optional memory budget that further
// bounds concurrent jobs by their estimated footprint. The zero value
// means "all cores, unbounded memory".
type Budget struct {
	// Workers is the number of jobs that may run at once; <= 0 means
	// GOMAXPROCS.
	Workers int
	// MemBytes bounds the total estimated footprint of concurrently
	// running jobs; <= 0 means unbounded.
	MemBytes int64
	// JobBytes is the estimated footprint of one job (callers estimate it
	// from the job's engine size — nodes x layer count — or override it
	// with a measured value). <= 0 means unknown, which disables the
	// memory bound.
	JobBytes int64
}

// Split resolves the budget for a fan-out of the given job count: how
// many jobs may run at once. That is the worker budget, capped by the job
// count and by the memory budget when one is given (always allowing at
// least one job, or nothing would ever run).
func (b Budget) Split(jobs int) (parallelism int) {
	parallelism = b.Workers
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if jobs < 1 {
		jobs = 1
	}
	if parallelism > jobs {
		parallelism = jobs
	}
	if b.MemBytes > 0 && b.JobBytes > 0 {
		memJobs := int(b.MemBytes / b.JobBytes)
		if memJobs < 1 {
			memJobs = 1
		}
		if parallelism > memJobs {
			parallelism = memJobs
		}
	}
	return parallelism
}

// Map runs fn(0), ..., fn(n-1) using at most parallelism concurrent
// goroutines (0 means GOMAXPROCS) and waits for all of them. All jobs are
// always executed; if any fail, Map returns the error of the
// lowest-indexed failing job.
func Map(parallelism, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if fn == nil {
		return fmt.Errorf("runner: nil job function")
	}

	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = safeCall(fn, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeCall converts a panicking job into an error so one bad experiment
// cannot take the whole grid down.
func safeCall(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
