package polystyrene

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"polystyrene/internal/experiments"
	"polystyrene/internal/metrics"
	"polystyrene/internal/scenario"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

func torusSystem(t *testing.T, seed uint64, baseline bool) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Seed:              seed,
		Space:             Torus(20, 10),
		Shape:             TorusShape(20, 10, 1),
		ReplicationFactor: 4,
		Baseline:          baseline,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewSystem(SystemConfig{Space: Torus(10, 10)}); err == nil {
		t.Fatal("missing shape accepted")
	}
	if _, err := NewSystem(SystemConfig{
		Space: Torus(10, 10), Shape: [][]float64{{1}},
	}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := NewSystem(SystemConfig{
		Space: Torus(10, 10), Shape: TorusShape(10, 10, 1), Split: "bogus",
	}); err == nil {
		t.Fatal("bogus split accepted")
	}
	if _, err := NewSystem(SystemConfig{Space: Euclidean(0), Shape: [][]float64{{1}}}); err == nil {
		t.Fatal("zero-dim euclidean accepted")
	}
	if _, err := NewSystem(SystemConfig{Space: SpaceSpec{}, Shape: [][]float64{{1}}}); err == nil {
		t.Fatal("zero SpaceSpec accepted")
	}
	// Zero means the default; below zero is refused, not run as it.
	for name, cfg := range map[string]SystemConfig{
		"ReplicationFactor":   {ReplicationFactor: -3},
		"NeighborK":           {NeighborK: -2},
		"DetectionDelay":      {DetectionDelay: -1},
		"ExchangeParallelism": {ExchangeParallelism: -2},
	} {
		cfg.Space, cfg.Shape = Torus(8, 4), TorusShape(8, 4, 1)
		if sys, err := NewSystem(cfg); err == nil {
			sys.Close()
			t.Errorf("negative %s accepted", name)
		}
	}
}

func TestShapeBuilders(t *testing.T) {
	grid := TorusShape(4, 3, 2)
	if len(grid) != 12 || grid[1][0] != 2 {
		t.Fatalf("TorusShape = %v", grid[:2])
	}
	ring := RingShape(4, 100)
	if len(ring) != 4 || ring[2][0] != 50 {
		t.Fatalf("RingShape = %v", ring)
	}
}

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: converge, crash half, reshape.
	sys := torusSystem(t, 1, false)
	sys.Run(15)
	if p := sys.Proximity(); p > 1.1 {
		t.Fatalf("proximity after convergence %v", p)
	}
	killed := sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	if killed < 90 || killed > 110 {
		t.Fatalf("killed %d, want ~100", killed)
	}
	sys.Run(15)
	if h, ref := sys.Homogeneity(), sys.ReferenceHomogeneity(); h >= ref {
		t.Fatalf("homogeneity %v did not drop below reference %v", h, ref)
	}
	if r := sys.Reliability(); r < 0.9 {
		t.Fatalf("reliability %v, want > 0.9 with K=4", r)
	}
}

func TestBaselineDoesNotReshape(t *testing.T) {
	sys := torusSystem(t, 2, true)
	sys.Run(15)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	sys.Run(15)
	if h, ref := sys.Homogeneity(), sys.ReferenceHomogeneity(); h < ref {
		t.Fatalf("baseline unexpectedly reshaped: %v < %v", h, ref)
	}
}

// TestBaselineJoinerOnAnOriginalPointHoldsIt: a baseline node's one
// guest is its fixed position, so a joiner pinned exactly on an original
// point holds that point. The full scan counts it, and the stack's
// holders index must too, bit for bit, in homogeneity and reliability —
// also after a restore that moves a joiner's pin but not the node count.
func TestBaselineJoinerOnAnOriginalPointHoldsIt(t *testing.T) {
	shape := TorusShape(4, 4, 1)
	build := func(joiner []float64) *System {
		sys, err := NewSystem(SystemConfig{Seed: 9, Space: Torus(4, 4), Shape: shape, Baseline: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		sys.Run(2)
		sys.CrashNodes(5)
		sys.Run(1)
		if _, err := sys.AddNodes([][]float64{joiner}); err != nil {
			t.Fatal(err)
		}
		sys.Run(1)
		return sys
	}
	check := func(sys *System, when string, wantRel float64) {
		t.Helper()
		view := sys.stack.System()
		if got, want := sys.Homogeneity(), metrics.Homogeneity(view, sys.stack.Points); got != want {
			t.Fatalf("%s: indexed homogeneity %v != full-scan %v", when, got, want)
		}
		got, want := sys.Reliability(), metrics.Reliability(view, sys.stack.Points)
		if got != want || got != wantRel {
			t.Fatalf("%s: indexed reliability %v, full-scan %v, want %v", when, got, want, wantRel)
		}
	}
	on := build(shape[5])
	check(on, "joiner on point 5", 1)
	off := build([]float64{1.5, 1.5})
	check(off, "joiner off the shape", 15.0/16)

	var buf bytes.Buffer
	if err := on.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := off.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	check(off, "restored joiner on point 5", 1)
}

func TestRoundAndLiveAccounting(t *testing.T) {
	sys := torusSystem(t, 3, false)
	if sys.Round() != 0 || sys.NumLive() != 200 {
		t.Fatalf("fresh system: round=%d live=%d", sys.Round(), sys.NumLive())
	}
	sys.Run(3)
	if sys.Round() != 3 {
		t.Fatalf("round = %d", sys.Round())
	}
	sys.CrashNodes(0, 1, 2, 999)
	if sys.NumLive() != 197 {
		t.Fatalf("live = %d, want 197", sys.NumLive())
	}
	if got := len(sys.Live()); got != 197 {
		t.Fatalf("Live() length %d", got)
	}
}

func TestAddNodesAcquirePointsAfterCrash(t *testing.T) {
	sys := torusSystem(t, 4, false)
	sys.Run(10)
	killed := sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	sys.Run(10)
	// Inject replacements on the offset grid.
	fresh := make([][]float64, 0, killed)
	for _, p := range TorusShape(20, 10, 1) {
		if len(fresh) == killed {
			break
		}
		if int(p[0]+p[1])%2 == 0 {
			fresh = append(fresh, []float64{p[0] + 0.5, p[1] + 0.5})
		}
	}
	ids, err := sys.AddNodes(fresh)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(25)
	got := 0
	for _, id := range ids {
		if len(sys.NodeGuests(id)) > 0 {
			got++
		}
	}
	if got < len(ids)/2 {
		t.Fatalf("only %d of %d injected nodes acquired points", got, len(ids))
	}
}

func TestAddNodesDimensionCheck(t *testing.T) {
	sys := torusSystem(t, 5, false)
	if _, err := sys.AddNodes([][]float64{{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestAddNodesRejectsBatchAtomically pins that a batch with one bad
// position adds no node at all, not the valid positions before it.
func TestAddNodesRejectsBatchAtomically(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Seed:              5,
		Space:             Torus(8, 8),
		Shape:             TorusShape(8, 8, 1),
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes, live := sys.stack.Engine.NumNodes(), sys.NumLive()
	if _, err := sys.AddNodes([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("batch with a dimension mismatch accepted")
	}
	if got := sys.stack.Engine.NumNodes(); got != nodes {
		t.Fatalf("rejected batch changed NumNodes %d -> %d", nodes, got)
	}
	if got := sys.NumLive(); got != live {
		t.Fatalf("rejected batch changed NumLive %d -> %d", live, got)
	}
}

func TestLookupRoutesToNearestNode(t *testing.T) {
	sys := torusSystem(t, 6, false)
	sys.Run(15)
	id := sys.Lookup([]float64{5.2, 5.1})
	if id < 0 {
		t.Fatal("lookup failed")
	}
	pos := sys.NodePosition(id)
	d := math.Hypot(pos[0]-5.2, pos[1]-5.1)
	if d > 1.0 {
		t.Fatalf("lookup returned node at distance %v", d)
	}
}

// TestLookupNonFiniteQuery pins the "no node" sentinel for a query with
// a NaN or infinite coordinate: no node is at a finite distance from it,
// so neither lookup may answer with a real node.
func TestLookupNonFiniteQuery(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 1, Space: Torus(8, 4), Shape: TorusShape(8, 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Run(3)
	nan, inf := math.NaN(), math.Inf(1)
	for _, q := range [][]float64{{nan, nan}, {inf, 1}, {1, nan}, {-inf, -inf}} {
		if got := sys.Lookup(q); got != -1 {
			t.Fatalf("Lookup(%v) = %d, want -1", q, got)
		}
		if got := sys.LookupExact(q); got != -1 {
			t.Fatalf("LookupExact(%v) = %d, want -1", q, got)
		}
	}
}

func TestLookupAfterCatastropheStillCoversSpace(t *testing.T) {
	sys := torusSystem(t, 7, false)
	sys.Run(15)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	sys.Run(15)
	// Queries in the crashed half must still route to a nearby survivor.
	worst := 0.0
	for _, q := range [][]float64{{15, 5}, {12, 2}, {18, 8}, {14.5, 0.5}} {
		id := sys.Lookup(q)
		if id < 0 {
			t.Fatal("lookup failed")
		}
		pos := sys.NodePosition(id)
		dx := math.Min(math.Abs(pos[0]-q[0]), 20-math.Abs(pos[0]-q[0]))
		dy := math.Min(math.Abs(pos[1]-q[1]), 10-math.Abs(pos[1]-q[1]))
		if d := math.Hypot(dx, dy); d > worst {
			worst = d
		}
	}
	if worst > 2.0 {
		t.Fatalf("worst lookup distance %v in the recovered half, want < 2", worst)
	}
}

func TestNeighborsExposed(t *testing.T) {
	sys := torusSystem(t, 8, false)
	sys.Run(10)
	nbs := sys.Neighbors(0, 4)
	if len(nbs) != 4 {
		t.Fatalf("neighbours = %v", nbs)
	}
	// Out-of-range ids — including negative sentinels like a failed
	// lookup's -1 — answer as empty queries, not panics.
	for _, id := range []int{-1, 100000} {
		if got := sys.Neighbors(id, 4); len(got) != 0 {
			t.Fatalf("Neighbors(%d) = %v, want empty", id, got)
		}
	}
}

// TestNeighborsNonPositiveK pins that k <= 0 is an empty query, as the
// overlay contract answers it, not a panic.
func TestNeighborsNonPositiveK(t *testing.T) {
	sys := torusSystem(t, 8, false)
	sys.Run(3)
	for _, k := range []int{0, -1} {
		if got := sys.Neighbors(0, k); len(got) != 0 {
			t.Fatalf("Neighbors(0, %d) = %v, want empty", k, got)
		}
	}
}

// TestNeighborFormsAgree pins the three facade query forms to each other:
// Neighbors (legacy fresh slice), AppendNeighbors (caller buffer) and
// EachNeighbor (visitor) must produce identical sequences, and an early
// visitor stop must truncate exactly.
func TestNeighborFormsAgree(t *testing.T) {
	sys := torusSystem(t, 8, false)
	sys.Run(10)
	buf := make([]int, 0, 8)
	for _, id := range []int{0, 7, 99, 141} {
		want := sys.Neighbors(id, 4)
		buf = sys.AppendNeighbors(buf[:0], id, 4)
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("node %d: AppendNeighbors %v != Neighbors %v", id, buf, want)
		}
		var visited []int
		sys.EachNeighbor(id, 4, func(nb int) bool {
			visited = append(visited, nb)
			return true
		})
		if !reflect.DeepEqual(visited, want) {
			t.Fatalf("node %d: EachNeighbor %v != Neighbors %v", id, visited, want)
		}
		var first []int
		sys.EachNeighbor(id, 4, func(nb int) bool {
			first = append(first, nb)
			return false
		})
		if len(first) != 1 || first[0] != want[0] {
			t.Fatalf("node %d: early-stop visit %v, want [%d]", id, first, want[0])
		}
	}
}

// TestLookupAllocations pins what a lookup costs in memory: LookupExact
// allocates nothing, and Lookup's bytes per call are the same at 40×20
// and 80×40, because its seeds come from a scan into a buffer the System
// reuses rather than from a copy of the live set.
func TestLookupAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are meaningless under -race; builds an 80x40 system")
	}
	perQuery := func(w, h int) (exactAllocs float64, lookupBytes uint64) {
		sys, err := NewSystem(SystemConfig{Seed: 1, Space: Torus(float64(w), float64(h)), Shape: TorusShape(w, h, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(20)
		var queries [][]float64
		for x := 0.5; x < 4; x++ {
			for y := 0.5; y < 4; y++ {
				queries = append(queries, []float64{x * float64(w) / 4, y * float64(h) / 4})
			}
		}
		exactAllocs = testing.AllocsPerRun(5, func() {
			for _, q := range queries {
				sys.LookupExact(q)
			}
		}) / float64(len(queries))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		sys.Lookup(queries[0]) // grows the reused buffer
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			for _, q := range queries {
				sys.Lookup(q)
			}
		}
		runtime.ReadMemStats(&after)
		return exactAllocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs*len(queries))
	}
	smallAllocs, small := perQuery(40, 20)
	largeAllocs, large := perQuery(80, 40)
	if smallAllocs != 0 || largeAllocs != 0 {
		t.Fatalf("LookupExact made %v and %v allocs per query at 40x20 and 80x40, want 0", smallAllocs, largeAllocs)
	}
	if small != large {
		t.Fatalf("Lookup allocated %d bytes per query at 40x20 and %d at 80x40, want the same", small, large)
	}
	t.Logf("Lookup allocates %d bytes per query", small)
}

// TestLookupMatchesFullScanOracle pins the greedy-descent Lookup to the
// full-scan oracle it replaced: on a converged shape — intact, and again
// after a catastrophe has been absorbed — the descent must land on a node
// (essentially) as close to the query as the global nearest.
func TestLookupMatchesFullScanOracle(t *testing.T) {
	sys := torusSystem(t, 12, false)
	sys.Run(15)
	queries := [][]float64{
		{0, 0}, {5.2, 5.1}, {10.5, 2.3}, {19.9, 9.9}, {13.1, 7.7}, {2.4, 8.6},
	}
	check := func(phase string, slack float64) {
		t.Helper()
		for _, q := range queries {
			got, want := sys.Lookup(q), sys.LookupExact(q)
			if got < 0 || want < 0 {
				t.Fatalf("%s: lookup failed for %v (got %d, oracle %d)", phase, q, got, want)
			}
			dg := sys.space.Distance(space.Point(q), sys.NodePosition(got))
			dw := sys.space.Distance(space.Point(q), sys.NodePosition(want))
			if dg > dw+slack {
				t.Fatalf("%s: Lookup(%v) landed at distance %v, oracle reaches %v",
					phase, q, dg, dw)
			}
		}
	}
	// On the intact converged grid greedy descent finds the global nearest.
	check("converged", 1e-9)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	sys.Run(15)
	// The recovered shape is sparser and less regular; allow the descent
	// one grid step of slack from the global optimum.
	check("recovered", 1.0)
}

// TestNeighborsGoldenVsPR2 is the facade-level golden check of the
// neighbour-query redesign: System.Neighbors output for a fixed seed and
// scenario must be byte-identical to what the PR 2 implementation (fresh
// result slice per query) produced. The expected lists were captured by
// running this exact configuration against the PR 2 tree.
func TestNeighborsGoldenVsPR2(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Seed:              1234,
		Space:             Torus(20, 10),
		Shape:             TorusShape(20, 10, 1),
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
	sys.Run(10)
	golden := map[int][]int{
		0:   {108, 27, 123, 169},
		3:   {81, 21, 63, 85},
		17:  {7, 16, 18, 37},
		42:  {46, 88, 185, 23},
		101: {87, 104, 5, 68},
		150: {108, 130, 151, 169},
	}
	for id, want := range golden {
		if got := sys.Neighbors(id, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: Neighbors = %v, want PR 2 golden %v", id, got, want)
		}
	}
}

func TestMemoryAndCostMetrics(t *testing.T) {
	sys := torusSystem(t, 9, false)
	if sys.LastRoundMessageCost() != 0 {
		t.Fatal("cost before any round should be 0")
	}
	sys.Run(10)
	if dp := sys.DataPointsPerNode(); math.Abs(dp-5) > 0.5 {
		t.Fatalf("data points per node %v, want ~5 (K+1)", dp)
	}
	if c := sys.LastRoundMessageCost(); c <= 0 {
		t.Fatalf("message cost %v, want > 0", c)
	}
}

func TestRingSystem(t *testing.T) {
	// The facade must work on non-torus shapes: a Chord-like ring.
	sys, err := NewSystem(SystemConfig{
		Seed:              10,
		Space:             Ring(256),
		Shape:             RingShape(128, 256),
		ReplicationFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15)
	if p := sys.Proximity(); p > 4.1 {
		t.Fatalf("ring proximity %v, want ~ring spacing", p)
	}
	// Crash a contiguous arc (a "datacenter").
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 128 && p[0] < 192 })
	sys.Run(15)
	if r := sys.Reliability(); r < 0.9 {
		t.Fatalf("ring reliability %v", r)
	}
	if h, ref := sys.Homogeneity(), sys.ReferenceHomogeneity(); h >= ref {
		t.Fatalf("ring homogeneity %v did not drop below %v", h, ref)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		sys := torusSystem(t, 42, false)
		sys.Run(10)
		sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
		sys.Run(10)
		return sys.Homogeneity()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical configs diverged: %v vs %v", a, b)
	}
}

// TestDeterminismFullScenarioMetrics runs the paper's complete 3-phase
// scenario twice with one seed and demands byte-identical per-round
// metric trajectories — every homogeneity, proximity, data-point, cost
// and liveness sample, not just a final scalar.
func TestDeterminismFullScenarioMetrics(t *testing.T) {
	run := func() *scenario.Result {
		_, res := runPaper(t,
			scenario.Config{Seed: 42, W: 20, H: 10, Polystyrene: true, K: 4},
			scenario.Phases{FailAt: 10, ReinjectAt: 25, End: 40})
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed metric records differ:\nrun1: %+v\nrun2: %+v", a, b)
	}
}

// TestDeterminismAcrossParallelism runs a small Table II / Fig. 10a grid —
// reshape and paper cells over two sizes, two replication factors and two
// repetitions — one cell at a time and four at once, and demands
// identical results: summaries, fingerprints and per-round series.
func TestDeterminismAcrossParallelism(t *testing.T) {
	spec, err := experiments.Parse([]byte(`{
		"name": "parallel", "seed": 3, "rounds": 30, "repeats": 2,
		"scenarios": [{"name": "reshape", "fail_at": 10}, {"name": "paper", "fail_at": 8, "rejoin_at": 16}],
		"sizes": [[16, 8], [20, 10]], "ks": [2, 4]
	}`), ".")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := experiments.Run(spec, experiments.RunOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Run(spec, experiments.RunOpts{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 16 || len(parallel) != len(serial) {
		t.Fatalf("got %d serial and %d parallel cells, want 16 each", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(parallel[i], serial[i]) {
			t.Errorf("cell %s: parallel result diverged from serial", serial[i].Cell.ID())
		}
	}
}

func TestDetectionDelaySlowsRecovery(t *testing.T) {
	measure := func(delay int) float64 {
		sys, err := NewSystem(SystemConfig{
			Seed:              11,
			Space:             Torus(20, 10),
			Shape:             TorusShape(20, 10, 1),
			ReplicationFactor: 4,
			DetectionDelay:    delay,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(10)
		sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
		sys.Run(4)
		return sys.Homogeneity()
	}
	fast := measure(0)
	slow := measure(8)
	if slow <= fast {
		t.Fatalf("detection delay did not slow recovery: delayed h=%v vs perfect h=%v", slow, fast)
	}
}

// TestSystemMatchesScenario pins that the facade and internal/scenario
// run one stack: a System over the paper's torus grid and a Scenario of
// the same seed and K, driven through convergence, the right-half crash
// and six more rounds, agree on every live node's position and 4 nearest
// neighbours and on homogeneity — under Polystyrene and the baseline, on
// the sequential and the batched engine.
func TestSystemMatchesScenario(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		for _, exPar := range []int{0, 2} {
			sys, err := NewSystem(SystemConfig{
				Seed:                5,
				Space:               Torus(16, 8),
				Shape:               TorusShape(16, 8, 1),
				ReplicationFactor:   3,
				Baseline:            baseline,
				ExchangeParallelism: exPar,
			})
			if err != nil {
				t.Fatal(err)
			}
			sc := scenario.MustNew(scenario.Config{
				Seed: 5, W: 16, H: 8, K: 3, Polystyrene: !baseline,
				ExchangeParallelism: exPar, SkipMetrics: true,
			})
			sys.Run(10)
			sys.CrashRegion(func(p []float64) bool { return p[0] >= 8 })
			sys.Run(6)
			sc.Run(10)
			sc.FailRightHalf()
			sc.Run(6)

			live := sys.Live()
			if scLive := sc.Engine.LiveIDs(); len(scLive) != len(live) {
				t.Fatalf("baseline=%v w=%d: %d live in the facade, %d in the scenario", baseline, exPar, len(live), len(scLive))
			}
			for _, id := range live {
				nid := sim.NodeID(id)
				if got, want := sys.NodePosition(id), []float64(sc.System().Position(nid)); !reflect.DeepEqual(got, want) {
					t.Fatalf("baseline=%v w=%d node %d: facade position %v, scenario %v", baseline, exPar, id, got, want)
				}
				want := make([]int, 0, 4)
				for _, nb := range sc.Topology().AppendNeighbors(nil, nid, 4) {
					want = append(want, int(nb))
				}
				if got := sys.Neighbors(id, 4); !reflect.DeepEqual(got, want) {
					t.Fatalf("baseline=%v w=%d node %d: facade neighbours %v, scenario %v", baseline, exPar, id, got, want)
				}
			}
			if got, want := sys.Homogeneity(), sc.Homogeneity(); got != want {
				t.Fatalf("baseline=%v w=%d: facade homogeneity %v, scenario %v", baseline, exPar, got, want)
			}
			sys.Close()
			sc.Close()
		}
	}
}

// TestCrashRegionPredicateCannotMoveNodes pins that CrashRegion hands its
// predicate a copy of each position: a predicate that writes into the
// slice moves no node, and the next rounds match an untouched run.
func TestCrashRegionPredicateCannotMoveNodes(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		touched := torusSystem(t, 3, baseline)
		clean := torusSystem(t, 3, baseline)
		touched.Run(5)
		clean.Run(5)
		if n := touched.CrashRegion(func(p []float64) bool { p[0] += 0.25; return false }); n != 0 {
			t.Fatalf("baseline=%v: mutating predicate crashed %d nodes", baseline, n)
		}
		for _, id := range clean.Live() {
			if got, want := touched.NodePosition(id), clean.NodePosition(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("baseline=%v node %d: predicate moved it from %v to %v", baseline, id, want, got)
			}
		}
		touched.Run(3)
		clean.Run(3)
		if got, want := systemFingerprint(touched), systemFingerprint(clean); !reflect.DeepEqual(got, want) {
			t.Fatalf("baseline=%v: 3 rounds after a mutating predicate diverged:\n got %v\nwant %v", baseline, got, want)
		}
	}
}

// TestNodeAccessorsUnknownID pins that the per-node accessors answer nil,
// rather than panicking, for IDs the system never created: -1, the next
// unassigned ID, and the -1 that Lookup returns once every node crashed.
func TestNodeAccessorsUnknownID(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		sys := torusSystem(t, 9, baseline)
		sys.Run(3)
		added, err := sys.AddNodes([][]float64{{0.5, 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		numNodes := added[0] + 1
		for _, id := range []int{0, added[0]} {
			if sys.NodePosition(id) == nil || sys.NodeGuests(id) == nil {
				t.Fatalf("baseline=%v: created node %d has no position or guests", baseline, id)
			}
		}
		sys.CrashRegion(func([]float64) bool { return true })
		lookup := sys.Lookup([]float64{1, 1})
		if lookup != -1 {
			t.Fatalf("baseline=%v: Lookup on an all-crashed system = %d, want -1", baseline, lookup)
		}
		for _, id := range []int{-1, numNodes, lookup} {
			if got := sys.NodePosition(id); got != nil {
				t.Errorf("baseline=%v: NodePosition(%d) = %v, want nil", baseline, id, got)
			}
			if got := sys.NodeGuests(id); got != nil {
				t.Errorf("baseline=%v: NodeGuests(%d) = %v, want nil", baseline, id, got)
			}
		}
	}
}
