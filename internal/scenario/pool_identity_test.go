package scenario

import (
	"reflect"
	"testing"

	"polystyrene/internal/sim"
)

// TestEngineResetByteIdentical pins sim.Engine.Reset's contract at the
// full-stack level: an engine that already ran a different experiment
// (different seed, different worker count), once Reset and handed to a
// new scenario via Config.Engine, reproduces the fresh-engine metric
// record and reliability byte-for-byte — for the sequential engine and
// under exchange batching.
func TestEngineResetByteIdentical(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := Config{Seed: 11, W: 16, H: 8, Polystyrene: true, ExchangeParallelism: workers}
		freshRes, freshRel := paperRun(t, cfg)

		eng := sim.New(0)
		defer eng.Close()
		dirty := cfg
		dirty.Seed = 99
		dirty.ExchangeParallelism = 3 - workers // different pool size too
		dirty.Engine = eng
		paperRun(t, dirty)

		reused := cfg
		reused.Engine = eng
		res, rel := paperRun(t, reused)
		if !reflect.DeepEqual(res, freshRes) {
			t.Errorf("workers=%d: reset-engine metric record diverged from fresh engine", workers)
		}
		if rel != freshRel {
			t.Errorf("workers=%d: reset-engine reliability %v, want %v", workers, rel, freshRel)
		}
	}
}
