package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/scenario"
	"polystyrene/internal/sim"
	"polystyrene/internal/snap"
	"polystyrene/internal/space"
	"polystyrene/internal/tman"
	"polystyrene/internal/topk"
	"polystyrene/internal/xrand"
)

// buildDir is where run.sh puts the binary; everything the benchmark
// writes (spans, checkpoint samples) goes there, inside the checkout.
const buildDir = ".bench_build"

var sink float64

// kernelBatches is how many batches perCall times; tests lower it.
var kernelBatches = 5

// perCall times batches of back-to-back calls of fn and returns the
// fastest batch in nanoseconds per call.
func perCall(calls int, fn func(i int)) float64 {
	best := math.Inf(1)
	for rep := 0; rep < kernelBatches; rep++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return best
}

// fastest returns the fastest of n timings of fn, in seconds.
func fastest(n int, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return best
}

// layerMetrics calls one layer at a time on the scenario standing at S:
// the leaf kernels, the overlay's neighbour query, the snapshot envelope,
// the checkpoint manager and the epoch's lookup.
func (r *run) layerMetrics(sc *scenario.Scenario) map[string]metric {
	out := map[string]metric{}
	rng := xrand.New(r.seed ^ 0x1a7e5)
	torus := sc.Space
	w, h := float64(r.spec.w), float64(r.spec.h)

	// space, topk: the kernels every tman and core step is made of.
	pts := make([]space.Point, 1024)
	for i := range pts {
		pts[i] = space.Point{rng.Float64() * w, rng.Float64() * h}
	}
	out["space.torus_dist_ns"] = metric{perCall(1_000_000, func(i int) {
		sink += torus.Distance(pts[i&1023], pts[(i+1)&1023])
	}), "ns"}
	out["space.medoid20_ns"] = metric{perCall(20_000, func(i int) {
		o := i & 511
		sink += float64(space.Medoid(torus, pts[o:o+20]))
	}), "ns"}
	keys := make([]float64, 60)
	payload := make([]sim.NodeID, 60)
	out["topk.smallestk_ns"] = metric{perCall(200_000, func(i int) {
		for j := range keys {
			keys[j] = pts[(i+j)&1023][0]
			payload[j] = sim.NodeID(j)
		}
		sink += float64(topk.SmallestK(keys, payload, tman.DefaultMsgSize))
	}), "ns"}

	// tman, core at S.
	live := sc.Engine.LiveIDs()
	var nbs []sim.NodeID
	topo := sc.Topology()
	t0 := time.Now()
	for _, id := range live {
		nbs = topo.AppendNeighbors(nbs[:0], id, 4)
	}
	out["tman.neighbors_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / float64(len(live)), "ns"}
	guests, ghosts := 0, 0
	for _, id := range live {
		guests += sc.Poly().NumGuests(id)
		ghosts += sc.Poly().NumGhosts(id)
	}
	entries, _, _ := sc.Poly().HoldersIndexFootprint()
	out["core.guests_mean"] = metric{float64(guests) / float64(len(live)), "count"}
	out["core.ghosts_mean"] = metric{float64(ghosts) / float64(len(live)), "count"}
	out["core.holders_entries"] = metric{float64(entries), "count"}

	// snap: the envelope and checksum alone, on S's body.
	var body []byte
	out["snap.decode_s"] = metric{fastest(3, func() {
		var err error
		if body, err = snap.Decode(scenario.SnapshotKind, r.snapshot); err != nil {
			r.fail("snap.Decode: %v", err)
		}
	}), "s"}
	out["snap.encode_s"] = metric{fastest(3, func() { sink += float64(len(snap.Encode(scenario.SnapshotKind, body))) }), "s"}
	out["snap.bytes"] = metric{float64(len(r.snapshot)), "B"}
	r.ops += 6

	// ckpt: durable save and recovery of S, fsync included.
	out["ckpt.save_s"], out["ckpt.open_s"] = r.checkpointMetrics()

	// serve: the epoch's lookup in process.
	ep := r.pub.Current()
	qs := make([][]float64, 1024)
	for i := range qs {
		qs[i] = []float64{rng.Float64() * w, rng.Float64() * h}
	}
	hops := 0
	out["serve.lookup_ns"] = metric{perCall(100_000, func(i int) {
		_, d, h, _ := ep.Lookup(qs[i&1023])
		sink += d
		hops += h
	}), "ns"}
	out["serve.lookup_hops"] = metric{float64(hops) / float64(100_000*kernelBatches), "count"}
	return out
}

// checkpointMetrics saves S three times through a ckpt.Manager in a
// directory of its own inside the checkout, then recovers the newest.
func (r *run) checkpointMetrics() (save, open metric) {
	save, open = metric{0, "s"}, metric{0, "s"}
	parent := buildDir
	if _, err := os.Stat(parent); err != nil {
		parent = "."
	}
	dir, err := os.MkdirTemp(parent, "ckpt-")
	if err != nil {
		r.fail("ckpt: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	mgr, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: scenario.SnapshotKind})
	if err != nil {
		r.fail("ckpt: %v", err)
		return
	}
	var saves []float64
	for round := 1; round <= 3; round++ {
		t0 := time.Now()
		_, err := mgr.Save(round, func(w io.Writer) error {
			_, err := w.Write(r.snapshot)
			return err
		})
		saves = append(saves, time.Since(t0).Seconds())
		r.ops++
		if err != nil {
			r.fail("ckpt.Save: %v", err)
		}
	}
	t0 := time.Now()
	_, data, err := mgr.OpenLatestGood()
	open.Value = time.Since(t0).Seconds()
	r.ops++
	if err != nil || !bytes.Equal(data, r.snapshot) {
		r.fail("ckpt.OpenLatestGood returned %d bytes, err %v", len(data), err)
	}
	save.Value = median(saves)
	return save, open
}

// runtimeMetrics reports what the untraced replays of this run saw
// beside their floors: the scenario layer's own calls, the HTTP path's
// percentiles, and what the Go runtime did meanwhile.
func (r *run) runtimeMetrics(out map[string]metric) {
	l := r.led
	out["scenario.new_s"] = metric{one(l.floor("new")), "s"}
	out["scenario.restore_s"] = metric{one(l.floor("restore")), "s"}
	out["scenario.snapshot_to_s"] = metric{one(l.floor("save")), "s"}
	out["scenario.fail_s"] = metric{one(l.floor("stat/fail_s")), "s"}
	out["scenario.reinject_s"] = metric{one(l.floor("stat/reinject_s")), "s"}
	out["serve.capture_s"] = metric{one(l.floor("publish")), "s"}
	out["snap.restore_allocs"] = metric{one(l.floor("stat/restore_allocs")), "count"}

	http := l.all("stat/http_us")
	out["serve.http_p50_us"] = metric{median(http), "us"}
	out["serve.http_p99_us"] = metric{quantile(http, 0.99), "us"}
	out["serve.neighbors_p50_us"] = metric{median(l.all("stat/neighbors_us")), "us"}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := r.client.runSlice(r.plan)
	runtime.ReadMemStats(&after)
	out["serve.allocs_per_req"] = metric{float64(after.Mallocs-before.Mallocs) / float64(len(r.plan.reqs)), "count"}
	r.ops += len(r.plan.reqs)
	for _, p := range res.verify(r.plan, r.pub.Current()) {
		r.fail("http: %s", p)
	}

	out["go.allocs_per_round"] = metric{float64(r.mallocs) / float64(r.roundsRun), "count"}
	out["go.alloc_bytes_per_round"] = metric{float64(r.allocBytes) / float64(r.roundsRun), "B"}
	out["go.gc_cycles"] = metric{float64(after.NumGC), "count"}
	out["go.gc_pause_ms"] = metric{float64(after.PauseTotalNs) / 1e6, "ms"}
	out["go.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// peakRSSMB is VmHWM of /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

const (
	contendedSeconds = 2    // closed loop, two connections
	liveSeconds      = 4    // open loop beside the round loop
	liveRate         = 2000 // requests per second
	liveRoundEvery   = 250 * time.Millisecond
)

// contended measures the read path while something else wants the two
// cores: first two closed-loop connections, then an open loop at
// liveRate beside a round loop doing one churn round per liveRoundEvery.
// These are the numbers that disagreed with themselves by 11% when they
// were gated; they stay as diagnostics.
func (r *run) contended(out map[string]metric) {
	// Lookups only: they have an answer in every epoch, whereas the node a
	// neighbours query names may be dead in the epochs the live phase
	// publishes.
	var reqs [][]byte
	for i, req := range r.plan.reqs {
		if r.plan.q[i] != nil {
			reqs = append(reqs, req)
		}
	}
	conns := make([]*client, 2)
	for i := range conns {
		c, err := dial(r.srv.Listener.Addr().String())
		if err != nil {
			r.fail("contended: %v", err)
			return
		}
		defer c.close()
		conns[i] = c
	}
	r.closedLoop(conns, reqs, out)
	r.openLoop(conns, reqs, out)
}

// closedLoop: each connection sends its next request when the previous
// one completed, for contendedSeconds.
func (r *run) closedLoop(conns []*client, reqs [][]byte, out map[string]metric) {
	var done, bad atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(contendedSeconds * time.Second)
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; time.Now().Before(deadline); k++ {
				if status, _, err := c.get(reqs[k%len(reqs)]); err != nil || status != 200 {
					bad.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	out["serve.qps_c2"] = metric{float64(done.Load()) / contendedSeconds, "1/s"}
	r.ops += int(done.Load())
	if n := bad.Load(); n > 0 {
		r.failed += int(n)
		r.problems = append(r.problems, "contended: closed loop had failed requests")
	}
}

// openLoop: request i is due at start + i/liveRate whatever happened to
// the ones before it, and its latency counts from that due time, while
// this goroutine drives a scenario restored from S through churn rounds
// that publish into the served epoch.
func (r *run) openLoop(conns []*client, reqs [][]byte, out map[string]metric) {
	sc, err := scenario.New(r.spec.config(r.seed))
	if err == nil {
		err = sc.Restore(bytes.NewReader(r.snapshot))
	}
	if err != nil {
		r.fail("contended: %v", err)
		return
	}
	defer sc.Close()
	sys := scenarioSystem{sc}
	src := sys.source()
	sys.setHook(func() { r.pub.Publish(src) })
	defer sys.setHook(nil)
	r.pub.Publish(src)

	total := liveSeconds * liveRate
	type sample struct {
		latencyUS, lateUS float64
		lag               int
		ok                bool
	}
	samples := make([]sample, total)
	var next, completedRounds atomic.Int64
	completedRounds.Store(int64(sc.Engine.Round()))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * time.Second / liveRate)
				// Timers wake late by tens of microseconds and more, so
				// sleep short of the due time and yield through the rest.
				time.Sleep(time.Until(due) - 200*time.Microsecond)
				for time.Until(due) > 0 {
					runtime.Gosched()
				}
				sent := time.Now()
				status, body, err := c.get(reqs[i%len(reqs)])
				s := &samples[i]
				s.latencyUS = float64(time.Since(due).Nanoseconds()) / 1e3
				s.lateUS = float64(sent.Sub(due).Nanoseconds()) / 1e3
				var a struct {
					Round int `json:"round"`
				}
				s.ok = err == nil && status == 200 && json.Unmarshal(body, &a) == nil
				s.lag = max(0, int(completedRounds.Load())-(a.Round+1))
			}
		}()
	}
	churn := newChurner(r.seed)
	for tick := start; time.Until(start.Add(liveSeconds*time.Second)) > 0; tick = tick.Add(liveRoundEvery) {
		time.Sleep(time.Until(tick))
		churn.apply(sys)
		sc.Run(1)
		completedRounds.Store(int64(sc.Engine.Round()))
		r.ops++
	}
	wg.Wait()

	var lat, late []float64
	lag, failed := 0, 0
	for _, s := range samples {
		if !s.ok {
			failed++
			continue
		}
		lat = append(lat, s.latencyUS)
		late = append(late, s.lateUS)
		lag += s.lag
	}
	r.ops += total
	r.failed += failed
	out["serve.live_p50_us"] = metric{median(lat), "us"}
	out["serve.live_p99_us"] = metric{quantile(lat, 0.99), "us"}
	out["serve.live_p999_us"] = metric{quantile(lat, 0.999), "us"}
	out["serve.live_late_p99_us"] = metric{quantile(late, 0.99), "us"}
	out["serve.live_epoch_lag_rounds"] = metric{float64(lag) / float64(max(1, len(lat))), "count"}
	out["serve.live_failed"] = metric{float64(failed), "count"}
}
