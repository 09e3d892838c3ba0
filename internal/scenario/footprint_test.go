package scenario

import (
	"runtime"
	"testing"
)

// measureFootprintBytes reports the live-heap growth (bytes) of building
// one cell of cfg and running it for the given rounds: GC-settled heap
// after, minus GC-settled heap before, with the scenario still alive at
// the second reading. It is the calibration probe for the footprint
// heuristics (estFootprintBytesPerNodeLayer, estFootprintBytesPerPoint).
func measureFootprintBytes(cfg Config, rounds int) (heap int64, sc *Scenario) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	sc = MustNew(cfg)
	sc.Run(rounds)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), sc
}

// TestEstimatedFootprintTracksMeasuredHeap pins EstimatedFootprintBytes
// against live runtime.MemStats sampling on converged mid-size runs: the
// estimate must land within a factor of 3 of measured live heap, in both
// directions, for the full Polystyrene stack and the plain baseline.
// (Factor 3 is the documented contract: the estimate feeds the grid's
// memory-budget admission, where the cost of a loose bound is
// throughput, and the cost of an estimate off by more than the factor is
// either an OOM-admitting sweep or one that strands most of the budget.) This is the test that
// recalibrates the two constants: if allocator or layout changes move
// measured heap outside the window, the constants — not the factor —
// should be updated.
func TestEstimatedFootprintTracksMeasuredHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("converged mid-size calibration run")
	}
	const factor = 3
	cases := map[string]Config{
		"poly-80x40":     {Seed: 11, W: 80, H: 40, Polystyrene: true},
		"baseline-80x40": {Seed: 11, W: 80, H: 40},
		"poly-120x60":    {Seed: 12, W: 120, H: 60, Polystyrene: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			measured, sc := measureFootprintBytes(cfg, 25)
			defer sc.Close()
			if measured <= 0 {
				t.Fatalf("measured live-heap growth %d bytes; calibration probe broken", measured)
			}
			est := cfg.EstimatedFootprintBytes()
			t.Logf("estimate %d bytes, measured %d bytes (ratio %.2f)", est, measured, float64(est)/float64(measured))
			if est > measured*factor {
				t.Fatalf("estimate %d overshoots measured heap %d by more than %dx", est, measured, factor)
			}
			if est*factor < measured {
				t.Fatalf("estimate %d undershoots measured heap %d by more than %dx", est, measured, factor)
			}
			runtime.KeepAlive(sc)
		})
	}
}

// TestEstimatedFootprintPricesPointUniverse pins the shape of the fix:
// under Polystyrene the estimate must include a term that scales with
// the interned point universe on top of the per-node-layer term — the
// configuration's estimate strictly exceeds layer pricing alone — and
// the baseline (which interns no data universe) must not pay it.
func TestEstimatedFootprintPricesPointUniverse(t *testing.T) {
	poly := Config{W: 80, H: 40, Polystyrene: true}
	base := Config{W: 80, H: 40}
	nodes := int64(80 * 40)
	layersOnly := nodes * 3 * estFootprintBytesPerNodeLayer
	if got := poly.EstimatedFootprintBytes(); got != layersOnly+nodes*estFootprintBytesPerPoint {
		t.Fatalf("poly estimate %d does not price the point universe (want %d)", got, layersOnly+nodes*estFootprintBytesPerPoint)
	}
	if got := base.EstimatedFootprintBytes(); got != nodes*2*estFootprintBytesPerNodeLayer {
		t.Fatalf("baseline estimate %d should carry no point term", got)
	}
}
