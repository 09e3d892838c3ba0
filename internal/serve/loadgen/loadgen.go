package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/xrand"
)

// Target is one query backend the generator can drive. HTTPTarget goes
// through real sockets and JSON (measuring the full service stack); the
// tests also drive the published epoch in-process. Epoch supplies the
// current snapshot for query *generation*; Lookup/Neighbors execute the
// queries. Targets must be safe for concurrent use by all workers.
type Target interface {
	Epoch() *serve.Epoch
	Lookup(q []float64) (sim.NodeID, bool, error)
	Neighbors(id sim.NodeID, k int) (int, error)
}

// HTTPTarget queries a Frontend over real HTTP. Pub is still consulted
// for query generation (the selftest runs generator and service in one
// process); the measured path is socket -> mux -> JSON end to end.
type HTTPTarget struct {
	Base   string       // e.g. "http://127.0.0.1:4600"
	Client *http.Client // nil means http.DefaultClient
	Pub    *serve.Publisher
}

func (t HTTPTarget) Epoch() *serve.Epoch { return t.Pub.Current() }

func (t HTTPTarget) get(url string, into any) (int, error) {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (t HTTPTarget) Lookup(q []float64) (sim.NodeID, bool, error) {
	buf := make([]byte, 0, len(t.Base)+16+len(q)*20)
	buf = append(buf, t.Base...)
	buf = append(buf, "/lookup?q="...)
	for i, v := range q {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	var lr struct {
		Found bool       `json:"found"`
		Node  sim.NodeID `json:"node"`
	}
	status, err := t.get(string(buf), &lr)
	if err != nil {
		return sim.None, false, err
	}
	if status != http.StatusOK {
		return sim.None, false, fmt.Errorf("lookup: HTTP %d", status)
	}
	return lr.Node, lr.Found, nil
}

func (t HTTPTarget) Neighbors(id sim.NodeID, k int) (int, error) {
	url := t.Base + "/neighbors?id=" + strconv.Itoa(int(id)) + "&k=" + strconv.Itoa(k)
	var nr struct {
		Neighbors []sim.NodeID `json:"neighbors"`
	}
	status, err := t.get(url, &nr)
	if err != nil {
		return 0, err
	}
	if status == http.StatusNotFound {
		return 0, nil // died between epochs: routine churn outcome
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("neighbors: HTTP %d", status)
	}
	return len(nr.Neighbors), nil
}

// Options configures one generator run.
type Options struct {
	// Seed derives every worker's private RNG stream; same seed, same
	// query sequence per worker.
	Seed uint64
	// Workers is the closed-loop concurrency (default 4).
	Workers int
	// Duration is how long to generate load for (default 1s).
	Duration time.Duration
	// NeighborEvery chains a neighbor query off every Nth successful
	// lookup (0 disables; default 4).
	NeighborEvery int
}

// Result is the merged outcome of a run.
type Result struct {
	// Ops counts completed queries (lookups + neighbor queries), Misses
	// the lookups answered "not found" (empty epoch), and Errors the
	// transport or server failures.
	Ops    uint64
	Misses uint64
	Errors uint64
	// Elapsed is the wall-clock measurement window; QPS is Ops/Elapsed.
	Elapsed time.Duration
	QPS     float64
	// Lookups and Neighbors are the per-query-kind latency histograms.
	Lookups   Hist
	Neighbors Hist
}

// String formats the run one line per histogram for logs and the
// selftest output.
func (r *Result) String() string {
	us := func(v uint64) float64 { return float64(v) / 1e3 }
	s := fmt.Sprintf("%.0f qps over %v (%d ops, %d misses, %d errors)",
		r.QPS, r.Elapsed.Round(time.Millisecond), r.Ops, r.Misses, r.Errors)
	if r.Lookups.Count() > 0 {
		s += fmt.Sprintf("\n  lookup    p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus max=%.1fus",
			us(r.Lookups.Quantile(0.50)), us(r.Lookups.Quantile(0.90)),
			us(r.Lookups.Quantile(0.99)), us(r.Lookups.Quantile(0.999)), us(r.Lookups.Max()))
	}
	if r.Neighbors.Count() > 0 {
		s += fmt.Sprintf("\n  neighbors p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus max=%.1fus",
			us(r.Neighbors.Quantile(0.50)), us(r.Neighbors.Quantile(0.90)),
			us(r.Neighbors.Quantile(0.99)), us(r.Neighbors.Quantile(0.999)), us(r.Neighbors.Max()))
	}
	return s
}

// Run drives tgt closed-loop until the duration elapses and returns the
// merged result. Each worker draws queries from its own xrand stream:
// it picks a live node from the target's *current* epoch (so churn is
// followed round by round), looks up that node's position, and every
// NeighborEvery-th hit chains a neighbor query on the node the lookup
// returned — the pattern a real client resolving then browsing would
// produce.
func Run(tgt Target, opt Options) Result {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.Duration <= 0 {
		opt.Duration = time.Second
	}
	if opt.NeighborEvery < 0 {
		opt.NeighborEvery = 0
	}

	type workerOut struct {
		ops, misses, errors uint64
		lookups, neighbors  Hist
	}
	outs := make([]workerOut, opt.Workers)
	root := xrand.New(opt.Seed)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(opt.Duration)
	for w := 0; w < opt.Workers; w++ {
		rng := root.Split()
		out := &outs[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var q []float64
			sinceNbr := 0
			for time.Now().Before(deadline) {
				ep := tgt.Epoch()
				if ep == nil || ep.NumLive() == 0 {
					// Warming or fully crashed: nothing to query yet.
					out.misses++
					time.Sleep(100 * time.Microsecond)
					continue
				}
				pos, ok := ep.Position(ep.NodeAt(rng.Intn(ep.NumLive())))
				if !ok {
					continue
				}
				q = append(q[:0], pos...)
				t0 := time.Now()
				node, found, err := tgt.Lookup(q)
				lat := time.Since(t0)
				switch {
				case err != nil:
					out.errors++
					continue
				case !found:
					out.misses++
					continue
				}
				out.lookups.Record(uint64(lat))
				out.ops++
				if opt.NeighborEvery > 0 {
					if sinceNbr++; sinceNbr >= opt.NeighborEvery {
						sinceNbr = 0
						t0 = time.Now()
						_, err := tgt.Neighbors(node, serve.DefaultFanout)
						lat = time.Since(t0)
						if err != nil {
							out.errors++
							continue
						}
						out.neighbors.Record(uint64(lat))
						out.ops++
					}
				}
			}
		}()
	}
	wg.Wait()
	res := Result{Elapsed: time.Since(start)}
	for i := range outs {
		res.Ops += outs[i].ops
		res.Misses += outs[i].misses
		res.Errors += outs[i].errors
		res.Lookups.Add(&outs[i].lookups)
		res.Neighbors.Add(&outs[i].neighbors)
	}
	if res.Elapsed > 0 {
		res.QPS = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res
}
