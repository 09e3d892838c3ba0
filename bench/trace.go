package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"polystyrene/internal/core"
	"polystyrene/internal/metrics"
	"polystyrene/internal/rps"
	"polystyrene/internal/serve"
	"polystyrene/internal/shape"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
	"polystyrene/internal/xrand"
)

// The traced run measures every layer from outside: the bench wires the
// stack itself from the public constructors, as scenario.New does, with
// each layer behind a forwarding wrapper that records one span per pass
// and the pass's counters. Per-step spans would be 150,000 a round at
// 51,200 nodes; a pass is the boundary at which a layer hands over.

// span is one timed interval. Parent is the index of the span that caused
// it (-1 for a replay); spans of one replay share Replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Replay int    `json:"replay"`
	// Round is the ordinal of the round within its replay.
	Round int `json:"round"`
	// Counters of a layer pass, recorded at the same boundary.
	Steps     int     `json:"steps,omitempty"`
	CostUnits int     `json:"cost_units,omitempty"`
	PlanCalls int     `json:"plan_calls,omitempty"`
	PlanNS    int64   `json:"plan_ns,omitempty"`
	Batches   int     `json:"batches,omitempty"`
	FlushNS   int64   `json:"flush_ns,omitempty"`
	ExecNS    []int64 `json:"exec_ns,omitempty"` // StepW time by worker slot
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the spans in memory; they are written out when the run
// ends. Only the engine goroutine opens and closes spans.
type tracer struct {
	t0     time.Time
	spans  []span
	eng    *sim.Engine
	layers []*tracedLayer

	replay, round   int
	replaySpan      int
	roundSpan, open int
	// openLayer is the index of the layer whose pass is open, -1 when the
	// open span (if any) is not a layer pass.
	openLayer int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), replaySpan: -1, roundSpan: -1, open: -1, openLayer: -1}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) push(name string, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Start: tr.now(), Parent: parent, Replay: tr.replay, Round: tr.round})
	return len(tr.spans) - 1
}

// attach points the tracer at the stack whose rounds it is about to see.
func (tr *tracer) attach(st *stack) { tr.eng, tr.layers = st.eng, st.layers }

func (tr *tracer) beginReplay(i int) {
	tr.replay, tr.round = i, -1
	tr.replaySpan = tr.push("replay", -1)
}

func (tr *tracer) endReplay() {
	tr.spans[tr.replaySpan].End = tr.now()
	tr.replaySpan = -1
}

func (tr *tracer) beginRound(ordinal int) {
	tr.round = ordinal
	tr.roundSpan = tr.push("round", tr.replaySpan)
}

func (tr *tracer) endRound() {
	tr.closeOpen()
	tr.spans[tr.roundSpan].End = tr.now()
	tr.roundSpan, tr.round = -1, -1
}

// enter closes the round's open child span and opens the next: a layer's
// pass ends where the next layer's (or the observers') begins.
func (tr *tracer) enter(name string, layer int) {
	if tr.roundSpan < 0 {
		return // InitNode, restore: outside any round
	}
	tr.closeOpen()
	tr.open = tr.push(name, tr.roundSpan)
	tr.openLayer = layer
}

func (tr *tracer) closeOpen() {
	if tr.open < 0 {
		return
	}
	s := &tr.spans[tr.open]
	s.End = tr.now()
	if tr.openLayer >= 0 {
		l := tr.layers[tr.openLayer]
		l.drain(s)
		// The round counter only advances after the publish hook, so the
		// meter still files this pass under the current round.
		s.CostUnits = tr.eng.Meter().RoundCost(l.inner.Name(), tr.eng.Round())
	}
	tr.open, tr.openLayer = -1, -1
}

func (tr *tracer) write(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func defaultSpansPath(workload string) string {
	return filepath.Join(buildDir, "spans-"+workload+".json")
}

// perRound is the replay floor of a per-span quantity, per round: spans
// called name are grouped by round ordinal, each group is reduced over
// the replays as a ledger step is, and the groups are summed and divided
// by the number of rounds.
func (tr *tracer) perRound(name string, f func(i int, s *span) float64) float64 {
	byRound := map[int][]float64{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name == name {
			byRound[s.Round] = append(byRound[s.Round], f(i, s))
		}
	}
	if len(byRound) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range byRound {
		sum += fasterHalf(v)
	}
	return sum / float64(len(byRound))
}

// selfTimes returns each span's duration minus what its children cover.
func (tr *tracer) selfTimes() []float64 {
	self := make([]float64, len(tr.spans))
	for i := range tr.spans {
		self[i] = tr.spans[i].dur()
	}
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p >= 0 {
			self[p] -= tr.spans[i].dur()
		}
	}
	return self
}

// workerCount is one worker slot's share of a batched pass, padded so
// that two workers never write the same cache line.
type workerCount struct {
	ns, steps int64
	_         [48]byte
}

// tracedLayer forwards every method the engine calls or type-asserts on
// (sim.Protocol, sim.Batched, sim.PlanInvariant, sim.Snapshotter) to the
// wrapped layer, so the engine schedules it exactly as it would the
// layer itself, and counts at the boundary.
type tracedLayer struct {
	inner interface {
		sim.Batched
		sim.Snapshotter
	}
	invariant bool
	idx       int
	tr        *tracer

	steps     int
	planCalls int
	planNS    int64
	batches   int
	flushNS   int64
	workers   []workerCount
}

func (l *tracedLayer) Name() string                          { return l.inner.Name() }
func (l *tracedLayer) InitNode(e *sim.Engine, id sim.NodeID) { l.inner.InitNode(e, id) }

func (l *tracedLayer) Step(e *sim.Engine, id sim.NodeID) {
	if l.tr.openLayer != l.idx {
		l.tr.enter(l.inner.Name()+".pass", l.idx)
	}
	l.steps++
	l.inner.Step(e, id)
}

func (l *tracedLayer) Batchable() bool { return l.inner.Batchable() }

func (l *tracedLayer) BeginBatchedRound(e *sim.Engine, workers int) {
	l.tr.enter(l.inner.Name()+".pass", l.idx)
	for len(l.workers) < workers {
		l.workers = append(l.workers, workerCount{})
	}
	l.inner.BeginBatchedRound(e, workers)
}

func (l *tracedLayer) PlanStep(e *sim.Engine, rng *xrand.Rand, id sim.NodeID, dst []sim.NodeID) []sim.NodeID {
	t0 := time.Now()
	dst = l.inner.PlanStep(e, rng, id, dst)
	l.planNS += int64(time.Since(t0))
	l.planCalls++
	return dst
}

func (l *tracedLayer) StepW(ctx *sim.StepCtx, id sim.NodeID) {
	t0 := time.Now()
	l.inner.StepW(ctx, id)
	w := &l.workers[ctx.Worker()]
	w.ns += int64(time.Since(t0))
	w.steps++
}

func (l *tracedLayer) FlushBatch(e *sim.Engine) {
	t0 := time.Now()
	l.inner.FlushBatch(e)
	l.flushNS += int64(time.Since(t0))
	l.batches++
}

func (l *tracedLayer) EndBatchedRound(e *sim.Engine) { l.inner.EndBatchedRound(e) }
func (l *tracedLayer) PlanInvariant() bool           { return l.invariant }

func (l *tracedLayer) SnapshotState(w *snap.Writer)      { l.inner.SnapshotState(w) }
func (l *tracedLayer) RestoreState(r *snap.Reader) error { return l.inner.RestoreState(r) }

// drain moves the pass's counters into its span and zeroes them.
func (l *tracedLayer) drain(s *span) {
	s.Steps, s.PlanCalls, s.PlanNS, s.Batches, s.FlushNS = l.steps, l.planCalls, l.planNS, l.batches, l.flushNS
	for i := range l.workers {
		s.Steps += int(l.workers[i].steps)
		s.ExecNS = append(s.ExecNS, l.workers[i].ns)
		l.workers[i] = workerCount{}
	}
	l.steps, l.planCalls, l.planNS, l.batches, l.flushNS = 0, 0, 0, 0, 0
}

// stack is the bench's own wiring of rps → T-Man → Polystyrene over the
// torus grid: what scenario.New builds for the Polystyrene-on-T-Man
// configuration, with every layer traced. It must reproduce the
// scenario.New run's fingerprint for the same seed, or the trace is of a
// different program.
type stack struct {
	spec   spec
	torus  space.Torus
	points []space.Point
	ids    []space.PointID
	intern *space.Interner
	topo   *tman.Protocol
	poly   *core.Protocol
	eng    *sim.Engine
	layers []*tracedLayer
	tr     *tracer

	liveBuf  []sim.NodeID
	guestBuf []space.Point
}

func newStack(sp spec, seed uint64, observers bool, tr *tracer) (*stack, error) {
	st := &stack{
		spec:   sp,
		torus:  space.TorusForGrid(sp.w, sp.h, 1),
		points: shape.Grid(sp.w, sp.h, 1),
		intern: space.NewInterner(),
		tr:     tr,
	}
	st.ids = shape.Intern(st.intern, st.points)
	sampler := rps.New(rps.Config{})
	var err error
	if st.topo, err = tman.New(tman.Config{Space: st.torus, Sampler: sampler, Position: st.Position}); err != nil {
		return nil, err
	}
	if st.poly, err = core.New(core.Config{
		Space: st.torus, Topology: st.topo, Sampler: sampler, Interner: st.intern,
		K: 4, Split: core.SplitAdvanced, InitialPoint: st.initialPoint,
	}); err != nil {
		return nil, err
	}
	st.layers = []*tracedLayer{
		{inner: sampler}, {inner: st.topo}, {inner: st.poly, invariant: st.poly.PlanInvariant()},
	}
	protocols := make([]sim.Protocol, len(st.layers))
	for i, l := range st.layers {
		l.idx, l.tr = i, tr
		protocols[i] = l
	}
	st.eng = sim.New(seed, protocols...)
	st.eng.SetExchangeParallelism(sp.workers)
	// The first observer marks where the last layer's pass ends.
	st.eng.Observe(func(*sim.Engine, int) { tr.enter("observers", -1) })
	if observers {
		st.eng.Observe(st.record)
	}
	st.eng.AddNodes(sp.w * sp.h)
	return st, nil
}

func (st *stack) close() { st.eng.Close() }

// initialPoint and reinjectionPosition mirror scenario's: the initial
// population seeds its own grid point, later nodes join empty-handed on
// the half-step-offset parallel grid.
func (st *stack) initialPoint(id sim.NodeID) (space.Point, bool) {
	if int(id) < len(st.points) {
		return st.points[id], true
	}
	n := len(st.points)
	idx := int(id) - n
	base := st.points[((2*idx)%n+(2*idx/n))%n]
	return st.torus.Wrap(space.Point{base[0] + 0.5, base[1] + 0.5}), false
}

// record is scenario's per-round metrics observer with each metric in
// its own span, plus the reliability reading the reshaping cells take.
func (st *stack) record(e *sim.Engine, round int) {
	st.tr.enter("metrics.homogeneity", -1)
	metrics.HomogeneityIndexed(st, st.poly, st.points, st.ids)
	st.tr.enter("metrics.proximity", -1)
	metrics.Proximity(st, 4)
	st.tr.enter("metrics.reliability", -1)
	metrics.ReliabilityIndexed(st, st.poly, st.ids)
	st.tr.enter("metrics.other", -1)
	metrics.DataPointsPerNode(st)
	metrics.MessageCostPerNode(e, round)
}

// system (the harness's view).
func (st *stack) engine() *sim.Engine  { return st.eng }
func (st *stack) source() serve.Source { return st }
func (st *stack) reinject(n int)       { st.eng.AddNodes(n) }

func (st *stack) setHook(fn func()) {
	if fn == nil {
		st.eng.SetPublishHook(nil)
		return
	}
	st.eng.SetPublishHook(func(*sim.Engine, int) {
		st.tr.enter("serve.publish", -1)
		fn()
	})
}

func (st *stack) failRightHalf() int {
	killed := 0
	for _, id := range st.eng.LiveIDs() {
		if space.RightHalf(st.poly.Position(id), float64(st.spec.w)) {
			st.eng.Kill(id)
			killed++
		}
	}
	return killed
}

// metrics.System and serve.Source.
func (st *stack) Space() space.Space                 { return st.torus }
func (st *stack) Alive(id sim.NodeID) bool           { return st.eng.Alive(id) }
func (st *stack) Position(id sim.NodeID) space.Point { return st.poly.Position(id) }
func (st *stack) NumGuests(id sim.NodeID) int        { return st.poly.NumGuests(id) }
func (st *stack) NumGhosts(id sim.NodeID) int        { return st.poly.NumGhosts(id) }
func (st *stack) Round() int                         { return st.eng.Round() }
func (st *stack) NumNodes() int                      { return st.eng.NumNodes() }
func (st *stack) NumPoints() int                     { return st.intern.Len() }

func (st *stack) Live() []sim.NodeID {
	st.liveBuf = st.eng.AppendLiveIDs(st.liveBuf[:0])
	return st.liveBuf
}

func (st *stack) Guests(id sim.NodeID) []space.Point {
	st.guestBuf = st.poly.AppendGuests(id, st.guestBuf[:0])
	return st.guestBuf
}

func (st *stack) AppendLive(dst []sim.NodeID) []sim.NodeID { return st.eng.AppendLiveIDs(dst) }

func (st *stack) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	st.topo.EachNeighbor(id, k, yield)
}

func (st *stack) EachGuestID(id sim.NodeID, fn func(pid space.PointID)) {
	st.poly.GuestsFunc(id, func(_ space.Point, pid space.PointID) { fn(pid) })
}

// snapshotEngine and restoreEngine are the traced stack's S: the engine
// section of a scenario snapshot, which is all a hand-wired stack has.
func (st *stack) snapshotEngine() ([]byte, error) {
	var w snap.Writer
	if err := st.eng.SnapshotState(&w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func (st *stack) restoreEngine(body []byte) error {
	r := snap.NewReader(body)
	if err := st.eng.RestoreState(r); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes in engine snapshot", r.Remaining())
	}
	return r.Err()
}

// tracedReplay runs the workload's rounds on a fresh traced stack — from
// the traced S, or from round 0 for a scratch workload — and checks the
// trajectory against the untraced reference.
func (r *run) tracedReplay(tr *tracer, i int, tracedS []byte, led *ledger) error {
	st, err := newStack(r.spec, r.seed, r.spec.observers, tr)
	if err != nil {
		return err
	}
	defer st.close()
	if !r.spec.scratch {
		if err := st.restoreEngine(tracedS); err != nil {
			return fmt.Errorf("traced restore: %w", err)
		}
	}
	tr.attach(st)
	tr.beginReplay(i)
	r.rounds(st, led, tr)
	tr.endReplay()
	r.check(fmt.Sprintf("traced replay %d", i), fingerprintOf(st))
	return nil
}

// traced is the traced run: the untraced set-up and reference as in
// measure, the same set-up again on the hand-wired stack, then untraced
// and traced replays interleaved, then the measurements that call one
// layer alone. It returns the per-layer metrics.
func (r *run) traced(spansPath string) (map[string]metric, error) {
	r.replays = max(2, r.replays/2)
	r.cellsEveryReplay = true
	sc, err := r.setup()
	if err != nil {
		return nil, err
	}
	atS := fingerprintOf(scenarioSystem{sc})

	tr := newTracer()
	st, err := newStack(r.spec, r.seed, false, tr)
	if err != nil {
		return nil, err
	}
	st.eng.RunRounds(r.spec.setupRounds)
	if !fingerprintOf(st).equal(atS) {
		return nil, fmt.Errorf("the hand-wired stack left scenario.New's trajectory within %d rounds: the trace would be of a different program", r.spec.setupRounds)
	}
	tracedS, err := st.snapshotEngine()
	if err != nil {
		return nil, err
	}
	st.close()

	out := r.layerMetrics(sc)
	if !r.spec.scratch {
		r.countedRounds(scenarioSystem{sc})
		r.check("reference", fingerprintOf(scenarioSystem{sc}))
	}
	sc.Close()

	tracedLed := newLedger()
	for i := 0; i < r.replays; i++ {
		r.replay(i)
		if err := r.tracedReplay(tr, i, tracedS, tracedLed); err != nil {
			return nil, err
		}
	}
	r.spanMetrics(tr, tracedLed, out)
	r.runtimeMetrics(out)
	if r.spec.churn {
		r.contended(out)
	}
	for k, v := range r.diagnostics() {
		out[k] = v
	}
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), spansPath)
	return out, nil
}

// spanMetrics derives the sim, rps, tman, core and metrics numbers from
// the spans. All are per round and replay floors, like round_s.
func (r *run) spanMetrics(tr *tracer, tracedLed *ledger, out map[string]metric) {
	self := tr.selfTimes()
	out["sim.round_self_s"] = metric{tr.perRound("round", func(i int, _ *span) float64 { return self[i] }), "s"}

	var plan, flush, exec0, exec1, sched, planCalls, replans, batches float64
	for _, name := range []string{"rps", "tman", "polystyrene"} {
		layer := name
		if name == "polystyrene" {
			layer = "core"
		}
		pass := name + ".pass"
		out[layer+".pass_s"] = metric{tr.perRound(pass, func(_ int, s *span) float64 { return s.dur() }), "s"}
		out[layer+".steps"] = metric{tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.Steps) }), "count"}
		out[layer+".cost_units"] = metric{tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.CostUnits) }), "count"}
		execOf := func(s *span, w int) float64 {
			if w < len(s.ExecNS) {
				return float64(s.ExecNS[w]) / 1e9
			}
			return 0
		}
		plan += tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.PlanNS) / 1e9 })
		flush += tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.FlushNS) / 1e9 })
		exec0 += tr.perRound(pass, func(_ int, s *span) float64 { return execOf(s, 0) })
		exec1 += tr.perRound(pass, func(_ int, s *span) float64 { return execOf(s, 1) })
		planCalls += tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.PlanCalls) })
		batches += tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.Batches) })
		if r.spec.workers > 0 {
			// What the engine goroutine spends neither planning, flushing
			// nor stepping: matching, dispatch and waiting at barriers.
			sched += tr.perRound(pass, func(_ int, s *span) float64 {
				return s.dur() - float64(s.PlanNS+s.FlushNS)/1e9 - execOf(s, 0)
			})
			replans += tr.perRound(pass, func(_ int, s *span) float64 { return float64(s.PlanCalls - s.Steps) })
		}
	}
	out["sim.plan_s"] = metric{plan, "s"}
	out["sim.plan_calls"] = metric{planCalls, "count"}
	out["sim.replans"] = metric{replans, "count"}
	out["sim.batches"] = metric{batches, "count"}
	out["sim.flush_s"] = metric{flush, "s"}
	out["sim.exec_w0_s"] = metric{exec0, "s"}
	out["sim.exec_w1_s"] = metric{exec1, "s"}
	out["sim.sched_self_s"] = metric{sched, "s"}

	for _, m := range []string{"homogeneity", "proximity", "reliability"} {
		out["metrics."+m+"_s"] = metric{tr.perRound("metrics."+m, func(_ int, s *span) float64 { return s.dur() }), "s"}
	}
	out["serve.hook_s"] = metric{tr.perRound("serve.publish", func(_ int, s *span) float64 { return s.dur() }), "s"}

	traced, _ := tracedLed.floor("round/")
	plain, _ := r.led.floor("round/")
	out["spans.overhead_frac"] = metric{traced/plain - 1, "ratio"}
}
