package runner

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapRunsAllJobs(t *testing.T) {
	const n = 50
	var ran [n]int32
	err := Map(4, n, func(i int) error {
		atomic.AddInt32(&ran[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	if err := Map(4, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapNilFn(t *testing.T) {
	if err := Map(1, 3, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := Map(8, 10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want lowest-indexed error %v", err, errA)
	}
}

func TestMapAllJobsRunDespiteError(t *testing.T) {
	var ran int32
	_ = Map(2, 20, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if ran != 20 {
		t.Fatalf("only %d of 20 jobs ran after an error", ran)
	}
}

func TestMapRecoversPanics(t *testing.T) {
	err := Map(2, 5, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestMapDefaultsParallelism(t *testing.T) {
	var ran int32
	if err := Map(0, 7, func(int) error { atomic.AddInt32(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 7 {
		t.Fatalf("ran = %d", ran)
	}
}

func TestMapSequentialDeterministicFold(t *testing.T) {
	// The documented usage pattern: jobs write to their own slot; folding
	// in index order is deterministic regardless of scheduling.
	results := make([]int, 100)
	if err := Map(8, 100, func(i int) error { results[i] = i * i; return nil }); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range results {
		sum += v
	}
	if sum != 328350 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestBudgetSplitWorkers(t *testing.T) {
	cases := []struct {
		workers, jobs, want int
	}{
		{workers: 8, jobs: 4, want: 4},   // never more workers than jobs
		{workers: 2, jobs: 10, want: 2},  // the worker budget caps the fan-out
		{workers: 4, jobs: 0, want: 1},   // an empty fan-out still reports one
		{workers: 1, jobs: 100, want: 1}, // serial
	}
	for _, c := range cases {
		if got := (Budget{Workers: c.workers}).Split(c.jobs); got != c.want {
			t.Errorf("Budget{Workers: %d}.Split(%d) = %d, want %d", c.workers, c.jobs, got, c.want)
		}
	}
	// Workers <= 0 means GOMAXPROCS: never zero concurrent jobs.
	if got := (Budget{}).Split(3); got < 1 {
		t.Fatalf("default budget produced parallelism %d", got)
	}
}

func TestBudgetSplitMemoryBound(t *testing.T) {
	cases := []struct {
		name    string
		b       Budget
		jobs    int
		wantPar int
	}{
		{
			name: "memory caps parallelism below the worker budget",
			b:    Budget{Workers: 8, MemBytes: 2 << 20, JobBytes: 1 << 20},
			jobs: 8, wantPar: 2,
		},
		{
			name: "worker budget caps when memory is plentiful",
			b:    Budget{Workers: 3, MemBytes: 100 << 20, JobBytes: 1 << 20},
			jobs: 8, wantPar: 3,
		},
		{
			name: "a job bigger than the whole budget still runs, one at a time",
			b:    Budget{Workers: 8, MemBytes: 1 << 20, JobBytes: 4 << 20},
			jobs: 8, wantPar: 1,
		},
		{
			name: "unknown job footprint disables the memory bound",
			b:    Budget{Workers: 4, MemBytes: 1},
			jobs: 8, wantPar: 4,
		},
		{
			name: "no memory budget disables the bound",
			b:    Budget{Workers: 4, JobBytes: 1 << 30},
			jobs: 8, wantPar: 4,
		},
	}
	for _, c := range cases {
		if par := c.b.Split(c.jobs); par != c.wantPar {
			t.Errorf("%s: Split(%d) = %d, want %d", c.name, c.jobs, par, c.wantPar)
		}
	}
}
