package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"polystyrene/internal/scenario"
	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// refSeconds is the --seconds value the replay counts below are sized
// for. Another value scales them in proportion (never below minReplays):
// a floor over a fixed number of replays is comparable between commits, a
// floor over "as many as fit" is not, because a faster program would get
// more draws.
const (
	refSeconds = 20
	minReplays = 4
)

// spec is one workload: a grid, an engine configuration and the script
// each replay runs. See README.md for why each exists.
type spec struct {
	name string
	w, h int
	// workers is scenario.Config.ExchangeParallelism.
	workers int
	// observers turns the per-round metric observers on in the replays.
	observers bool
	// setupRounds is how far in the snapshot S is taken; setups is how
	// often set-up is repeated (setup_s is the median).
	setupRounds, setups int
	// replays is R at refSeconds; rounds the timed rounds per replay.
	replays, rounds int
	// cycles is how often a replay repeats each of its cheap operations
	// (Publish, New + Restore, SnapshotTo, HTTP slices) and slices the HTTP
	// slices per cycle: they cost little beside the rounds, and every
	// repeat is one more sample.
	cycles, slices int
	// scratch replays start from scenario.New at round 0 (the paper's
	// script) instead of from Restore(S).
	scratch bool
	// failAt and reinjectAt are the rounds of the paper's catastrophe and
	// reinjection (scratch only; 0 disables).
	failAt, reinjectAt int
	// churn kills 1% of the live nodes and reinjects as many before each
	// round, with the publish hook attached.
	churn bool
	// cells is the number of warm reshaping cells run after a replay: the
	// first one only in the untraced run (where they are a correctness
	// check), every one in the traced run (which reports reshape_s).
	cells int
}

var specs = []spec{
	{
		name: "scale_51200", w: 320, h: 160, workers: 0,
		setupRounds: 2, setups: 1, replays: 7, rounds: 1, cycles: 1, slices: 3,
	},
	{
		name: "scale_51200_w2", w: 320, h: 160, workers: 2,
		setupRounds: 2, setups: 1, replays: 7, rounds: 1, cycles: 1, slices: 3,
	},
	{
		name: "paper_3200", w: 80, h: 40, observers: true, scratch: true,
		setupRounds: 20, setups: 3, replays: 4, rounds: 50, cycles: 8, slices: 1, failAt: 20, reinjectAt: 35, cells: 1,
	},
	{
		name: "serve_3200", w: 80, h: 40, churn: true,
		setupRounds: 20, setups: 3, replays: 20, rounds: 5, cycles: 2, slices: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns R for a --seconds value.
func (s spec) scaled(seconds int) int {
	r := (s.replays*seconds + refSeconds/2) / refSeconds
	if r < minReplays {
		r = minReplays
	}
	return r
}

// config is the scenario configuration of the replays; set-up always
// skips the observers (as scenario.ConvergedSnapshot does).
func (s spec) config(seed uint64) scenario.Config {
	return scenario.Config{
		Seed: seed, W: s.w, H: s.h, Polystyrene: true, K: 4,
		SkipMetrics: !s.observers, ExchangeParallelism: s.workers,
	}
}

const (
	sliceLookups     = 2000
	reshapeMaxRounds = 60
)

// system is what the harness needs from a wired stack, so that the same
// script drives scenario.Scenario and the hand-wired traced stack.
type system interface {
	engine() *sim.Engine
	Position(id sim.NodeID) space.Point
	NumGuests(id sim.NodeID) int
	NumGhosts(id sim.NodeID) int
	source() serve.Source
	failRightHalf() int
	reinject(n int)
	// setHook installs fn as the engine's publish hook; nil clears it.
	setHook(fn func())
}

type scenarioSystem struct{ sc *scenario.Scenario }

func (s scenarioSystem) engine() *sim.Engine                { return s.sc.Engine }
func (s scenarioSystem) Position(id sim.NodeID) space.Point { return s.sc.Poly().Position(id) }
func (s scenarioSystem) NumGuests(id sim.NodeID) int        { return s.sc.Poly().NumGuests(id) }
func (s scenarioSystem) NumGhosts(id sim.NodeID) int        { return s.sc.Poly().NumGhosts(id) }
func (s scenarioSystem) source() serve.Source               { return s.sc.ServeSource() }
func (s scenarioSystem) failRightHalf() int                 { return s.sc.FailRightHalf() }
func (s scenarioSystem) reinject(n int)                     { s.sc.Reinject(n) }
func (s scenarioSystem) setHook(fn func())                  { s.sc.Engine.SetPublishHook(engineHook(fn)) }

func engineHook(fn func()) func(*sim.Engine, int) {
	if fn == nil {
		return nil
	}
	return func(*sim.Engine, int) { fn() }
}

// fingerprint identifies a trajectory: the per-round total message cost
// since round 0 and a hash of the final live ids, positions and
// guest/ghost counts.
type fingerprint struct {
	costs []int
	state uint64
}

func (f fingerprint) equal(g fingerprint) bool {
	return f.state == g.state && slices.Equal(f.costs, g.costs)
}

func fingerprintOf(s system) fingerprint {
	e := s.engine()
	var f fingerprint
	for r := 0; r < e.Round(); r++ {
		f.costs = append(f.costs, e.Meter().TotalRoundCost(r))
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, id := range e.LiveIDs() {
		put(uint64(id))
		for _, c := range s.Position(id) {
			put(math.Float64bits(c))
		}
		put(uint64(s.NumGuests(id)))
		put(uint64(s.NumGhosts(id)))
	}
	f.state = h.Sum64()
	return f
}

// churner draws the victims of the 1% churn from the harness's own
// stream, re-created per replay so every replay kills the same nodes.
type churner struct {
	rng  *xrand.Rand
	live []sim.NodeID
}

func newChurner(seed uint64) *churner { return &churner{rng: xrand.New(seed ^ 0xc4a12f5eed)} }

func (c *churner) apply(s system) {
	e := s.engine()
	c.live = e.AppendLiveIDs(c.live[:0])
	n := (len(c.live) + 99) / 100
	for i := 0; i < n; i++ {
		j := i + c.rng.Intn(len(c.live)-i)
		c.live[i], c.live[j] = c.live[j], c.live[i]
		e.Kill(c.live[i])
	}
	s.reinject(n)
}

// run is one benchmark process: one workload, one seed.
type run struct {
	spec    spec
	seed    uint64
	replays int
	lookups int // lookups per HTTP slice
	led     *ledger

	snapshot []byte // S
	pub      *serve.Publisher
	srv      *httptest.Server
	client   *client
	plan     *slicePlan
	saveBuf  bytes.Buffer

	setupS     []float64
	heapLiveMB float64
	ref        *fingerprint
	cellOut    scenario.ReshapingOutcome

	cellsEveryReplay bool

	ops, failed int
	problems    []string
	// mallocs and allocBytes accumulate over the timed rounds.
	roundsRun           int
	mallocs, allocBytes uint64
}

func newRun(sp spec, seed uint64, seconds int) *run {
	return &run{spec: sp, seed: seed, replays: sp.scaled(seconds), lookups: sliceLookups, led: newLedger()}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) close() {
	if r.client != nil {
		r.client.close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

// timed runs fn and books its wall time under key.
func (r *run) timed(key string, fn func()) {
	t0 := time.Now()
	fn()
	r.led.add(key, time.Since(t0).Seconds())
}

// quiet runs fn on a collected heap with the collector off, and turns it
// back on. The cheap operations are timed this way: whether a collection
// lands inside a 30 ms SnapshotTo depends on the garbage its predecessors
// left, which made Restore bimodal (0.23 s or 0.36 s at 51,200 nodes) and
// a slice's latency hang on a background mark phase holding the second
// core. The rounds keep the collector on, as a simulation does.
func quiet(fn func()) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
}

// liveHeapMB is HeapAlloc after two collections: the second one frees
// what finalizers and sync.Pool victims of the first kept reachable, so
// the reading depends on what is live, not on when the GC last ran.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setup builds S — the workload's grid, setupRounds in — serializes it,
// publishes its epoch and starts the HTTP frontend, spec.setups times
// over, and returns the last set-up's scenario (still at S).
func (r *run) setup() (*scenario.Scenario, error) {
	cfg := r.spec.config(r.seed)
	cfg.SkipMetrics = true
	var sc *scenario.Scenario
	for i := 0; i < r.spec.setups; i++ {
		if sc != nil {
			// Drop the previous set-up entirely, or its snapshot and epoch
			// would count as live heap in this one.
			sc.Close()
			r.srv.Close()
			sc, r.srv, r.pub, r.snapshot = nil, nil, nil, nil
		}
		t0 := time.Now()
		var err error
		if sc, err = scenario.New(cfg); err != nil {
			return nil, err
		}
		sc.Run(r.spec.setupRounds)
		r.heapLiveMB = liveHeapMB()
		var buf bytes.Buffer
		if err := sc.SnapshotTo(&buf); err != nil {
			return nil, err
		}
		r.snapshot = buf.Bytes()
		r.pub = serve.NewPublisher(0)
		r.pub.Publish(sc.ServeSource())
		r.srv = httptest.NewServer(serve.NewFrontend(r.pub))
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	var err error
	if r.client, err = dial(r.srv.Listener.Addr().String()); err != nil {
		return nil, err
	}
	r.saveBuf.Grow(len(r.snapshot) + len(r.snapshot)/4)
	return sc, nil
}

func roundKey(i int) string { return "round/" + strconv.Itoa(i) }

// rounds runs the workload's scripted rounds on sys, which stands at the
// replay's starting state. Each round is timed into led and bracketed as
// a round span when tr is not nil.
func (r *run) rounds(sys system, led *ledger, tr *tracer) {
	e := sys.engine()
	var churn *churner
	if r.spec.churn {
		src := sys.source()
		churn = newChurner(r.seed)
		sys.setHook(func() { r.pub.Publish(src) })
		defer sys.setHook(nil)
	}
	killed := 0
	for i := 0; i < r.spec.rounds; i++ {
		if tr != nil {
			tr.beginRound(i)
		}
		t0 := time.Now()
		if tr != nil {
			// What the script does to the population before the engine
			// runs is not the engine's self time.
			tr.enter("scenario.events", -1)
		}
		if churn != nil {
			churn.apply(sys)
		}
		if r.spec.failAt > 0 && i == r.spec.failAt {
			killed = sys.failRightHalf()
			led.add("stat/fail_s", time.Since(t0).Seconds())
		}
		if r.spec.reinjectAt > 0 && i == r.spec.reinjectAt {
			sys.reinject(killed)
			led.add("stat/reinject_s", time.Since(t0).Seconds())
		}
		e.RunRounds(1)
		led.add(roundKey(i), time.Since(t0).Seconds())
		if tr != nil {
			tr.endRound()
		}
		r.ops++
	}
}

// countedRounds is rounds timed into the run's ledger, with the heap's
// allocation counters read before and after (between steps, never inside
// a timed interval).
func (r *run) countedRounds(sys system) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.rounds(sys, r.led, nil)
	runtime.ReadMemStats(&after)
	r.roundsRun += r.spec.rounds
	r.mallocs += after.Mallocs - before.Mallocs
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
}

// cycles runs the cheap timed operations on sc once its rounds are done,
// spec.cycles times over: Publish, New + Restore(S) into a scenario that is
// dropped at once, SnapshotTo into the pre-grown buffer, and the HTTP
// slices. The order matters to SnapshotTo, which allocates twice the
// snapshot's size: when the heap has to grow for that, the page faults
// cost a third again at 51,200 nodes and vary; after the dropped restore
// it has the room.
func (r *run) cycles(sc *scenario.Scenario) {
	src := scenarioSystem{sc}.source()
	for k := 0; k < r.spec.cycles; k++ {
		quiet(func() { r.timed("publish", func() { r.pub.Publish(src) }) })
		r.restored().Close()
		quiet(func() {
			r.timed("save", func() {
				r.saveBuf.Reset()
				if err := sc.SnapshotTo(&r.saveBuf); err != nil {
					r.fail("SnapshotTo: %v", err)
				}
			})
		})
		r.ops += 2
		for j := 0; j < r.spec.slices; j++ {
			r.slice()
		}
	}
}

// slice sends one HTTP slice against the current epoch and books its
// wall time and its median lookup latency.
func (r *run) slice() {
	ep := r.pub.Current()
	if r.plan == nil {
		r.plan = newSlicePlan(r.seed, ep, float64(r.spec.w), float64(r.spec.h), r.lookups)
	}
	var res *sliceResult
	quiet(func() { res = r.client.runSlice(r.plan) })
	r.ops += len(r.plan.reqs)
	for _, p := range res.verify(r.plan, ep) {
		r.fail("http: %s", p)
	}
	r.led.add("slice", res.wall)
	r.led.add("stat/lookup_us", median(res.lookupUS))
	r.led.add("stat/http_us", res.lookupUS...)
	r.led.add("stat/neighbors_us", res.neighborsUS...)
}

// check compares a replay's fingerprint with the reference.
func (r *run) check(what string, f fingerprint) {
	r.ops++
	if r.ref == nil {
		r.ref = &f
		return
	}
	if !r.ref.equal(f) {
		r.fail("%s: fingerprint differs from the reference (state %#x vs %#x)", what, f.state, r.ref.state)
	}
}

// fresh wires a scenario of the workload's configuration, timed as the
// script's step "new".
func (r *run) fresh() *scenario.Scenario {
	t0 := time.Now()
	sc, err := scenario.New(r.spec.config(r.seed))
	if err != nil {
		panic(err) // the configuration is the benchmark's own
	}
	r.led.add("new", time.Since(t0).Seconds())
	return sc
}

// restored restores S into a fresh scenario, timing both steps and
// counting the restore's allocations.
func (r *run) restored() *scenario.Scenario {
	sc := r.fresh()
	var before, after runtime.MemStats
	quiet(func() {
		runtime.ReadMemStats(&before)
		r.timed("restore", func() {
			if err := sc.Restore(bytes.NewReader(r.snapshot)); err != nil {
				r.fail("Restore: %v", err)
			}
		})
		runtime.ReadMemStats(&after)
	})
	r.led.add("stat/restore_allocs", float64(after.Mallocs-before.Mallocs))
	r.ops++
	return sc
}

// replay is one untraced replay and the reshaping cells that follow it:
// the rounds from S — or from round 0 for the paper's script — then the
// cycles. The heap is collected first, so that a replay pays for its own
// garbage and not for its predecessor's.
func (r *run) replay(i int) {
	runtime.GC()
	var sc *scenario.Scenario
	if r.spec.scratch {
		sc = r.fresh()
	} else {
		sc = r.restored()
	}
	defer sc.Close()
	r.countedRounds(scenarioSystem{sc})
	r.cycles(sc)
	r.check(fmt.Sprintf("replay %d", i), fingerprintOf(scenarioSystem{sc}))
	if r.spec.scratch {
		r.checkResume(i, sc)
	}
	if i == 0 || r.cellsEveryReplay {
		r.reshapeCells()
	}
}

// checkResume restores the snapshot the last cycle took of sc into a
// fresh scenario; both then run one more round and must agree. (On the
// S-based workloads every replay is such a check against the reference.)
func (r *run) checkResume(i int, sc *scenario.Scenario) {
	sc2, err := scenario.New(r.spec.config(r.seed))
	if err != nil {
		panic(err)
	}
	defer sc2.Close()
	r.ops++
	if err := sc2.Restore(bytes.NewReader(r.saveBuf.Bytes())); err != nil {
		r.fail("replay %d: restoring the script's final snapshot: %v", i, err)
		return
	}
	sc.Run(1)
	sc2.Run(1)
	if !fingerprintOf(scenarioSystem{sc}).equal(fingerprintOf(scenarioSystem{sc2})) {
		r.fail("replay %d: restored scenario diverged from the uninterrupted one after one more round", i)
	}
}

// reshapeCells runs the warm-started Table II / Fig. 10a cells that
// follow a replay and checks their outcome.
func (r *run) reshapeCells() {
	cfg := r.spec.config(r.seed)
	for k := 0; k < r.spec.cells; k++ {
		var out scenario.ReshapingOutcome
		var err error
		r.timed("reshape", func() {
			out, err = scenario.MeasureReshapingFrom(cfg, r.snapshot, reshapeMaxRounds)
		})
		r.ops++
		if err != nil {
			r.fail("MeasureReshapingFrom: %v", err)
			continue
		}
		r.cellOut = out
		if p := checkCell(r.spec, r.seed, out); p != "" {
			r.fail("reshape cell: %s", p)
		}
	}
}

//go:embed expected.json
var expectedJSON []byte

// expectedCell is one pinned reshaping outcome of bench/expected.json.
type expectedCell struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	ReshapeRounds int     `json:"reshape_rounds"`
	Reliability   float64 `json:"reliability"`
}

// checkCell holds a cell to expected.json when its seed is pinned there
// and otherwise to the paper's claim: reshaped within the budget with
// at least 95% of the points alive (K=4 predicts 1-0.5^5 = 96.9%).
func checkCell(sp spec, seed uint64, out scenario.ReshapingOutcome) string {
	var pinned []expectedCell
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		return "expected.json: " + err.Error()
	}
	for _, p := range pinned {
		if p.Workload == sp.name && p.Seed == seed {
			if out.Rounds != p.ReshapeRounds || math.Abs(out.Reliability-p.Reliability) > 5e-5 {
				return fmt.Sprintf("seed %d reshaped in %d rounds with reliability %.4f, expected.json says %d and %.4f",
					seed, out.Rounds, out.Reliability, p.ReshapeRounds, p.Reliability)
			}
			return ""
		}
	}
	if !out.Reached || out.Rounds > reshapeMaxRounds || out.Reliability < 0.95 {
		return fmt.Sprintf("reached=%v after %d rounds with reliability %.4f, want reshaped within %d rounds at >= 0.95",
			out.Reached, out.Rounds, out.Reliability, reshapeMaxRounds)
	}
	return ""
}

// measure is the untraced run: set-up, the uninterrupted reference, then
// R interleaved replays.
func (r *run) measure() error {
	sc, err := r.setup()
	if err != nil {
		return err
	}
	if !r.spec.scratch {
		// The set-up scenario carries on from S without a restore: its
		// fingerprint is what every restored replay must reproduce, and
		// its rounds are one more sample of each.
		r.countedRounds(scenarioSystem{sc})
		r.check("reference", fingerprintOf(scenarioSystem{sc}))
	}
	sc.Close()
	for i := 0; i < r.replays; i++ {
		r.replay(i)
	}
	return nil
}
