package experiments

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"polystyrene/internal/scenario"
	"polystyrene/internal/shape"
	"polystyrene/internal/trace"
)

func TestFanOutRunsAllJobs(t *testing.T) {
	const n = 50
	var ran [n]int32
	err := fanOut(4, n, func(i int) error {
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

func TestFanOutZeroJobs(t *testing.T) {
	if err := fanOut(4, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFanOutReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := fanOut(8, 10, func(i int) error {
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

func TestFanOutAllJobsRunDespiteError(t *testing.T) {
	var ran int32
	_ = fanOut(2, 20, func(i int) error {
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

func TestFanOutRecoversPanics(t *testing.T) {
	err := fanOut(2, 5, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

// A parallelism below one still runs every job, one at a time.
func TestFanOutClampsParallelism(t *testing.T) {
	var ran int32
	if err := fanOut(0, 7, func(int) error { atomic.AddInt32(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 7 {
		t.Fatalf("ran = %d", ran)
	}
}

func TestFanOutSequentialDeterministicFold(t *testing.T) {
	// Run's usage pattern: jobs write to their own slot; folding in index
	// order is deterministic regardless of scheduling.
	results := make([]int, 100)
	if err := fanOut(8, 100, func(i int) error { results[i] = i * i; return nil }); err != nil {
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

func TestParallelismWorkers(t *testing.T) {
	cases := []struct {
		workers, cells, want int
	}{
		{workers: 8, cells: 4, want: 4},   // never more workers than cells
		{workers: 2, cells: 10, want: 2},  // the worker budget caps the fan-out
		{workers: 4, cells: 0, want: 1},   // an empty grid still reports one
		{workers: 1, cells: 100, want: 1}, // serial
	}
	for _, c := range cases {
		if got := (RunOpts{Parallelism: c.workers}).parallelism(c.cells, 0); got != c.want {
			t.Errorf("RunOpts{Parallelism: %d}.parallelism(%d, 0) = %d, want %d", c.workers, c.cells, got, c.want)
		}
	}
	// Parallelism <= 0 means GOMAXPROCS: never zero concurrent cells.
	if got := (RunOpts{}).parallelism(3, 0); got < 1 {
		t.Fatalf("default options produced parallelism %d", got)
	}
}

func TestParallelismMemoryBound(t *testing.T) {
	cases := []struct {
		name      string
		o         RunOpts
		cellBytes int64
		want      int
	}{
		{"memory caps parallelism below the worker budget", RunOpts{Parallelism: 8, MemBudgetBytes: 2 << 20}, 1 << 20, 2},
		{"worker budget caps when memory is plentiful", RunOpts{Parallelism: 3, MemBudgetBytes: 100 << 20}, 1 << 20, 3},
		{"a cell bigger than the whole budget still runs, one at a time", RunOpts{Parallelism: 8, MemBudgetBytes: 1 << 20}, 4 << 20, 1},
		{"unknown cell footprint disables the memory bound", RunOpts{Parallelism: 4, MemBudgetBytes: 1}, 0, 4},
		{"no memory budget disables the bound", RunOpts{Parallelism: 4}, 1 << 30, 4},
	}
	for _, c := range cases {
		if par := c.o.parallelism(8, c.cellBytes); par != c.want {
			t.Errorf("%s: parallelism(8, %d) = %d, want %d", c.name, c.cellBytes, par, c.want)
		}
	}
}

// scheduleFNV is FNV-1a over a schedule's initial population, event count
// and every (round, op, node), each as a little-endian uint64.
func scheduleFNV(s *trace.Schedule) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(s.Initial)
	put(len(s.Events))
	for _, e := range s.Events {
		put(e.Round)
		put(int(e.Op))
		put(e.Node)
	}
	return h.Sum64()
}

// TestCorrelatedSchedulesPinned pins the canonical rack-failure and
// rolling-partition schedules, as BuildSchedule makes them, to constants
// recorded when rack-failure still placed nodes on a datacenter × rack
// hierarchy (the datacenter-0 set it crashed never depended on the rack
// count). params is datacenters for rack-failure and bands for
// rolling-partition; rejoin < 0 scripts no joins.
func TestCorrelatedSchedulesPinned(t *testing.T) {
	cases := []struct {
		name                 string
		w, h, params, rejoin int
		fingerprint          uint64
	}{
		{"rack-failure", 16, 8, 1, -1, 0x36e3cb0fc6a1fd65},
		{"rack-failure", 16, 8, 1, 20, 0x51012f04fbfa420a},
		{"rack-failure", 16, 8, 2, -1, 0x6a30dcc1c682a4a5},
		{"rack-failure", 16, 8, 2, 20, 0x7601739ad4dcd365},
		{"rack-failure", 16, 8, 3, -1, 0x12543bab7b949115},
		{"rack-failure", 16, 8, 3, 20, 0x452e6d31fd8b8ec5},
		{"rack-failure", 16, 8, 4, -1, 0x8ccb48b8701c6a05},
		{"rack-failure", 16, 8, 4, 20, 0xb6ce9b2dba8ea4a5},
		{"rack-failure", 16, 8, 5, -1, 0x8ccb48b8701c6a05},
		{"rack-failure", 16, 8, 5, 20, 0xb6ce9b2dba8ea4a5},
		{"rack-failure", 16, 8, 8, -1, 0x2dac4b117944f6f5},
		{"rack-failure", 16, 8, 8, 20, 0x5e987d83d919c205},
		{"rack-failure", 40, 20, 1, -1, 0xc1bdf259f5545885},
		{"rack-failure", 40, 20, 1, 20, 0xaf4f68802f33d39e},
		{"rack-failure", 40, 20, 2, -1, 0xd7bcd6493ee7f4d7},
		{"rack-failure", 40, 20, 2, 20, 0xab97f4891b54b71d},
		{"rack-failure", 40, 20, 3, -1, 0xdf5e95e34c839a33},
		{"rack-failure", 40, 20, 3, 20, 0xb7c227f9db33e72e},
		{"rack-failure", 40, 20, 4, -1, 0xa380b1e2acb0a774},
		{"rack-failure", 40, 20, 4, 20, 0x630805df6dcbcfef},
		{"rack-failure", 40, 20, 5, -1, 0x2ab9498ed9c2d65c},
		{"rack-failure", 40, 20, 5, 20, 0xe409a026bf334937},
		{"rack-failure", 40, 20, 8, -1, 0xeecbbb667041f796},
		{"rack-failure", 40, 20, 8, 20, 0x3af0e9d972b4d096},
		{"rack-failure", 80, 40, 1, -1, 0xc0c0512a66027ee5},
		{"rack-failure", 80, 40, 1, 20, 0x8fcf6de48bfc8c6e},
		{"rack-failure", 80, 40, 2, -1, 0xceaeb9b7d735d36f},
		{"rack-failure", 80, 40, 2, 20, 0x0c0aedce1c12131d},
		{"rack-failure", 80, 40, 3, -1, 0x5d8c365c4736e595},
		{"rack-failure", 80, 40, 3, 20, 0x4d6353ea8158b599},
		{"rack-failure", 80, 40, 4, -1, 0xf9b4df36c8fbcf30},
		{"rack-failure", 80, 40, 4, 20, 0x00774b93650bbd87},
		{"rack-failure", 80, 40, 5, -1, 0xa874048513415a4b},
		{"rack-failure", 80, 40, 5, 20, 0xc5b63a34f2db5c52},
		{"rack-failure", 80, 40, 8, -1, 0x682e1911c1813136},
		{"rack-failure", 80, 40, 8, 20, 0xaf0a1e19cf1a8b58},
		{"rolling-partition", 16, 8, 1, -1, 0xc6d772fd65493d65},
		{"rolling-partition", 16, 8, 1, 3, 0x979c3e801acfc20a},
		{"rolling-partition", 16, 8, 3, -1, 0xcdb833591ac6a4e5},
		{"rolling-partition", 16, 8, 3, 3, 0x5601cac4e8de340a},
		{"rolling-partition", 16, 8, 4, -1, 0x2300036102197165},
		{"rolling-partition", 16, 8, 4, 3, 0xc192bd0d6f3b9e0a},
		{"rolling-partition", 16, 8, 7, -1, 0xbff83645b8f37ae5},
		{"rolling-partition", 16, 8, 7, 3, 0x55199c553f42d80a},
		{"rolling-partition", 40, 20, 1, -1, 0x93eab6ed2f1ff5c5},
		{"rolling-partition", 40, 20, 1, 3, 0x57baa08665881ade},
		{"rolling-partition", 40, 20, 3, -1, 0x7f4a8f72929747a1},
		{"rolling-partition", 40, 20, 3, 3, 0xfea214b57b9d7c22},
		{"rolling-partition", 40, 20, 4, -1, 0x8d1b86958852bff1},
		{"rolling-partition", 40, 20, 4, 3, 0x201fd57294825822},
		{"rolling-partition", 40, 20, 7, -1, 0xf6d5c56c94210d7d},
		{"rolling-partition", 40, 20, 7, 3, 0xee0196adf37f5d3e},
		{"rolling-partition", 80, 40, 1, -1, 0x4452e9ac16074fe5},
		{"rolling-partition", 80, 40, 1, 3, 0xee37970387a3556e},
		{"rolling-partition", 80, 40, 3, -1, 0xdebe616b5dafa619},
		{"rolling-partition", 80, 40, 3, 3, 0x55f8f9f23b33ebd2},
		{"rolling-partition", 80, 40, 4, -1, 0xbe6f63f9a40bd0f5},
		{"rolling-partition", 80, 40, 4, 3, 0xc4c7fe05aaee021e},
		{"rolling-partition", 80, 40, 7, -1, 0xb8d8f5b65721abfd},
		{"rolling-partition", 80, 40, 7, 3, 0xd39d6448d920e426},
	}
	for _, c := range cases {
		sp := ScenarioSpec{Name: c.name, RejoinAt: c.rejoin}
		if c.name == "rack-failure" {
			sp.DCs, sp.FailAt = c.params, 10
		} else {
			sp.Bands, sp.Stride, sp.FailAt = c.params, 2, 6
		}
		s, err := BuildSchedule(Cell{W: c.w, H: c.h, Scenario: sp})
		if err != nil {
			t.Fatalf("%s %dx%d %d rejoin %d: %v", c.name, c.w, c.h, c.params, c.rejoin, err)
		}
		if got := scheduleFNV(s); got != c.fingerprint {
			t.Errorf("%s %dx%d %d rejoin %d: fingerprint %#016x, want %#016x", c.name, c.w, c.h, c.params, c.rejoin, got, c.fingerprint)
		}
	}
}

// TestDatacenterFailureRecoveryEndToEnd is the deployment story end to
// end: one of two datacenters, the slab x < W/2, goes dark after the
// shape has converged, and Polystyrene re-forms the torus from the
// surviving half.
func TestDatacenterFailureRecoveryEndToEnd(t *testing.T) {
	const w, h = 20, 10
	sched, err := trace.DatacenterOutage(shape.Grid(w, h, 1), w, 2, 12, -1)
	if err != nil {
		t.Fatal(err)
	}
	if killed := len(sched.Events); killed != w*h/2 {
		t.Fatalf("outage crashes %d nodes, want %d", killed, w*h/2)
	}
	sc := scenario.MustNew(scenario.Config{Seed: 5, W: w, H: h, Polystyrene: true, K: 6, SkipMetrics: true})
	defer sc.Close()
	if err := scenario.DriveSchedule(sc, sched, 32, nil); err != nil {
		t.Fatal(err)
	}
	if live := sc.Engine.NumLive(); live != w*h/2 {
		t.Fatalf("%d nodes live after the outage, want %d", live, w*h/2)
	}
	if hom, ref := sc.Homogeneity(), sc.ReferenceHomogeneity(); hom >= ref {
		t.Fatalf("shape not recovered after datacenter loss: %v >= %v", hom, ref)
	}
	if rel := sc.Reliability(); rel < 0.95 {
		t.Fatalf("reliability %v with K=6", rel)
	}
}
