package serve_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"polystyrene/internal/scenario"
	"polystyrene/internal/serve"
	"polystyrene/internal/serve/loadgen"
	"polystyrene/internal/sim"
	"polystyrene/internal/xrand"
)

// BenchmarkEpochPublish prices the copy-on-publish step the round loop
// pays once per round: positions, neighbour rows, guest index and the
// live-only holders table for an 800-node converged overlay.
func BenchmarkEpochPublish(b *testing.B) {
	sc := scenario.MustNew(scenario.Config{
		Seed: 7, W: 40, H: 20, Polystyrene: true, K: 4, SkipMetrics: true,
	})
	defer sc.Close()
	sc.Run(25)
	src := sc.ServeSource()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := serve.Capture(src, serve.DefaultFanout, uint64(i+1))
		if ep.NumLive() == 0 {
			b.Fatal("empty epoch")
		}
	}
}

// lookupEpoch captures an epoch of a converged 800-node scenario and
// pre-draws 256 queries over its torus, so a timed loop touches only the
// epoch.
func lookupEpoch(tb testing.TB) (*serve.Epoch, [][]float64) {
	tb.Helper()
	sc := scenario.MustNew(scenario.Config{
		Seed: 7, W: 40, H: 20, Polystyrene: true, K: 4, SkipMetrics: true,
	})
	defer sc.Close()
	sc.Run(25)
	ep := serve.Capture(sc.ServeSource(), serve.DefaultFanout, 1)
	rng := xrand.New(99)
	queries := make([][]float64, 256)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 40, rng.Float64() * 20}
	}
	return ep, queries
}

// BenchmarkServeLookup measures greedy lookup against a published epoch.
func BenchmarkServeLookup(b *testing.B) {
	ep, queries := lookupEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := ep.Lookup(queries[i%len(queries)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// TestServeLookupAllocFree pins the allocation-free read path on a real
// converged epoch: greedy lookup must stay at 0 allocs/op — the guarantee
// that lets thousands of concurrent readers run without feeding the
// garbage collector.
func TestServeLookupAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("AllocsPerRun is unreliable under -race; the race step runs -short")
	}
	ep, queries := lookupEpoch(t)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := ep.Lookup(queries[i%len(queries)]); !ok {
			t.Fatal("lookup failed")
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Epoch.Lookup allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkServePhases measures what the service sustains end to end:
// a closed-loop load generator querying over real loopback HTTP while
// the round loop drives the overlay through the paper's regimes. Each
// sub-benchmark reports sustained qps and p50/p99 latency via
// ReportMetric.
//
//   - calm: converged overlay, no failures.
//   - catastrophe_recovery: half the grid crashes mid-window, then the
//     lost nodes are reinjected — the serving surface answers
//     throughout from the last published epoch.
//   - churn: 1% of live nodes crash every round and are replaced.
func BenchmarkServePhases(b *testing.B) {
	for _, tc := range []struct {
		name        string
		catastrophe bool
		churn       bool
	}{
		{name: "calm"},
		{name: "catastrophe_recovery", catastrophe: true},
		{name: "churn", churn: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchServePhase(b, tc.catastrophe, tc.churn)
		})
	}
}

func benchServePhase(b *testing.B, catastrophe, churn bool) {
	const window = 400 * time.Millisecond
	var total loadgen.Result
	for i := 0; i < b.N; i++ {
		sc := scenario.MustNew(scenario.Config{
			Seed: uint64(11 + i), W: 24, H: 12, Polystyrene: true, K: 4, SkipMetrics: true,
		})
		pub := sc.ServePublisher()
		srv := httptest.NewServer(serve.NewFrontend(pub))
		sc.Run(15) // converge before the measured window

		// The driver goroutine owns the engine for the whole window;
		// the load generator only ever touches published epochs.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			grid := sc.Cfg.W * sc.Cfg.H
			round := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if catastrophe {
					if round == 3 {
						sc.FailRightHalf()
					}
					if round == 12 {
						sc.Reinject(grid - sc.Engine.NumLive())
					}
				}
				if churn {
					kills := sc.Engine.NumLive() / 100
					if kills < 1 {
						kills = 1
					}
					for k := 0; k < kills; k++ {
						if id := sc.Engine.RandomLive(); id != sim.None {
							sc.Engine.Kill(id)
						}
					}
					sc.Reinject(grid - sc.Engine.NumLive())
				}
				sc.Run(1)
				round++
				// Pace rounds like a deployed service (poly serve's
				// -interval); an unpaced loop would just monopolise the
				// CPU and measure scheduler starvation, not serving.
				time.Sleep(5 * time.Millisecond)
			}
		}()

		// Keep one idle connection per worker: without it the default
		// transport churns sockets and delayed ACKs dominate latency.
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		res := loadgen.Run(&loadgen.HTTPTarget{Base: srv.URL, Client: client, Pub: pub}, loadgen.Options{
			Seed:     uint64(17 + i),
			Workers:  4,
			Duration: window,
		})
		close(stop)
		wg.Wait()
		client.CloseIdleConnections()
		srv.Close()
		pub.Close()
		sc.Close()
		if res.Errors > 0 {
			b.Fatalf("load generator saw %d errors", res.Errors)
		}
		total.Ops += res.Ops
		total.Misses += res.Misses
		total.Elapsed += res.Elapsed
		total.Lookups.Add(&res.Lookups)
		total.Neighbors.Add(&res.Neighbors)
	}
	if total.Elapsed > 0 {
		b.ReportMetric(float64(total.Ops)/total.Elapsed.Seconds(), "qps")
	}
	if total.Lookups.Count() > 0 {
		b.ReportMetric(float64(total.Lookups.Quantile(0.50))/1e3, "p50_us")
		b.ReportMetric(float64(total.Lookups.Quantile(0.99))/1e3, "p99_us")
	}
}
