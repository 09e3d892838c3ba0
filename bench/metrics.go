package main

import "math"

// perLayer lists every metric of the traced run with its unit, in the
// order of README.md's layer table (which says what each should move). A
// workload that bypasses a layer reports that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"sim.round_self_s", "s"},
	{"sim.plan_s", "s"},
	{"sim.plan_calls", "count"},
	{"sim.replans", "count"},
	{"sim.batches", "count"},
	{"sim.flush_s", "s"},
	{"sim.exec_w0_s", "s"},
	{"sim.exec_w1_s", "s"},
	{"sim.sched_self_s", "s"},
	{"rps.pass_s", "s"},
	{"rps.steps", "count"},
	{"rps.cost_units", "count"},
	{"tman.pass_s", "s"},
	{"tman.steps", "count"},
	{"tman.cost_units", "count"},
	{"tman.neighbors_ns", "ns"},
	{"core.pass_s", "s"},
	{"core.steps", "count"},
	{"core.cost_units", "count"},
	{"core.guests_mean", "count"},
	{"core.ghosts_mean", "count"},
	{"core.holders_entries", "count"},
	{"space.torus_dist_ns", "ns"},
	{"space.medoid20_ns", "ns"},
	{"topk.smallestk_ns", "ns"},
	{"metrics.homogeneity_s", "s"},
	{"metrics.proximity_s", "s"},
	{"metrics.reliability_s", "s"},
	{"scenario.new_s", "s"},
	{"scenario.fail_s", "s"},
	{"scenario.reinject_s", "s"},
	{"scenario.snapshot_to_s", "s"},
	{"scenario.restore_s", "s"},
	{"reshape_s", "s"},
	{"reshape_s.med", "s"},
	{"snap.encode_s", "s"},
	{"snap.decode_s", "s"},
	{"snap.bytes", "B"},
	{"snap.restore_allocs", "count"},
	{"ckpt.save_s", "s"},
	{"ckpt.open_s", "s"},
	{"serve.capture_s", "s"},
	{"serve.hook_s", "s"},
	{"serve.lookup_ns", "ns"},
	{"serve.lookup_hops", "count"},
	{"serve.http_p50_us", "us"},
	{"serve.http_p99_us", "us"},
	{"serve.neighbors_p50_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.qps_c2", "1/s"},
	{"serve.live_p50_us", "us"},
	{"serve.live_p99_us", "us"},
	{"serve.live_p999_us", "us"},
	{"serve.live_late_p99_us", "us"},
	{"serve.live_epoch_lag_rounds", "count"},
	{"serve.live_failed", "count"},
	{"go.allocs_per_round", "count"},
	{"go.alloc_bytes_per_round", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.peak_rss_mb", "MB"},
	{"spans.overhead_frac", "ratio"},
	{"round_s.med", "s"},
	{"scenario_s.med", "s"},
	{"snapshot_save_s.med", "s"},
	{"snapshot_restore_s.med", "s"},
	{"publish_s.med", "s"},
	{"lookup_us.med", "us"},
}

// perLayerResult keeps exactly the listed metrics of m, 0 for those the
// workload did not produce, and no value JSON cannot carry.
func perLayerResult(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		v := m[p.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[p.name] = metric{v, p.unit}
	}
	return out
}
