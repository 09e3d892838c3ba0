package loadgen

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// lineSource is a minimal serve.Source: n nodes on a 1-D Euclidean
// line, node i at position i, ring-ish neighbours by index distance.
type lineSource struct {
	spc space.Space
	n   int
	pos []float64
}

func newLineSource(n int) *lineSource {
	return &lineSource{spc: space.NewEuclidean(1), n: n, pos: make([]float64, 1)}
}

func (s *lineSource) Space() space.Space { return s.spc }
func (s *lineSource) Round() int         { return 0 }
func (s *lineSource) NumNodes() int      { return s.n }

func (s *lineSource) AppendLive(dst []sim.NodeID) []sim.NodeID {
	for i := 0; i < s.n; i++ {
		dst = append(dst, sim.NodeID(i))
	}
	return dst
}

func (s *lineSource) Position(id sim.NodeID) space.Point {
	s.pos[0] = float64(id)
	return s.pos
}

func (s *lineSource) EachNeighbor(id sim.NodeID, k int, yield func(sim.NodeID) bool) {
	for d := 1; d < s.n && k > 0; d++ {
		for _, nb := range [2]int{int(id) - d, int(id) + d} {
			if nb >= 0 && nb < s.n && k > 0 {
				if !yield(sim.NodeID(nb)) {
					return
				}
				k--
			}
		}
	}
}

func (s *lineSource) NumGuests(sim.NodeID) int                    { return 0 }
func (s *lineSource) NumGhosts(sim.NodeID) int                    { return 0 }
func (s *lineSource) NumPoints() int                              { return 0 }
func (s *lineSource) EachGuestID(sim.NodeID, func(space.PointID)) {}

func TestRunEpochTarget(t *testing.T) {
	pub := serve.NewPublisher(4)
	pub.Publish(newLineSource(64))
	res := Run(EpochTarget{Pub: pub}, Options{
		Seed: 7, Workers: 2, Duration: 50 * time.Millisecond, NeighborEvery: 4,
	})
	if res.Ops == 0 || res.QPS == 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors against healthy epoch: %d", res.Errors)
	}
	if res.Lookups.Count() == 0 || res.Neighbors.Count() == 0 {
		t.Fatalf("histograms empty: lookups=%d neighbors=%d",
			res.Lookups.Count(), res.Neighbors.Count())
	}
	// Closed-loop chaining: roughly one neighbor query per 4 lookups.
	ratio := float64(res.Lookups.Count()) / float64(res.Neighbors.Count())
	if ratio < 3 || ratio > 6 {
		t.Fatalf("lookup/neighbor ratio = %.1f, want ~4", ratio)
	}
	if s := res.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestRunDeterministicQueries(t *testing.T) {
	// Same seed, same epoch: the query streams are identical, so two
	// runs bounded by op count (not time) agree on every sampled node.
	pub := serve.NewPublisher(4)
	pub.Publish(newLineSource(64))
	ep := pub.Current()
	sample := func(seed uint64) []sim.NodeID {
		rng := []sim.NodeID{}
		r := xrand.New(seed).Split()
		for i := 0; i < 100; i++ {
			rng = append(rng, ep.NodeAt(r.Intn(ep.NumLive())))
		}
		return rng
	}
	a, b := sample(42), sample(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query stream diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunHTTPTarget(t *testing.T) {
	pub := serve.NewPublisher(4)
	pub.Publish(newLineSource(32))
	srv := httptest.NewServer(serve.NewFrontend(pub))
	defer srv.Close()
	res := Run(HTTPTarget{Base: srv.URL, Client: srv.Client(), Pub: pub}, Options{
		Seed: 7, Workers: 2, Duration: 50 * time.Millisecond, NeighborEvery: 3,
	})
	if res.Ops == 0 {
		t.Fatalf("no ops over HTTP: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("HTTP errors: %d", res.Errors)
	}
}

func TestRunAgainstWarmingPublisher(t *testing.T) {
	pub := serve.NewPublisher(4)
	res := Run(EpochTarget{Pub: pub}, Options{
		Seed: 1, Workers: 1, Duration: 10 * time.Millisecond,
	})
	if res.Ops != 0 {
		t.Fatalf("ops against warming publisher: %d", res.Ops)
	}
	if res.Misses == 0 {
		t.Fatal("warming publisher recorded no misses")
	}
}

func TestHTTPTargetToleratesChurnedNode(t *testing.T) {
	pub := serve.NewPublisher(4)
	pub.Publish(newLineSource(8))
	srv := httptest.NewServer(serve.NewFrontend(pub))
	defer srv.Close()
	tgt := HTTPTarget{Base: srv.URL, Client: srv.Client(), Pub: pub}
	// Node 99 never existed: the target treats the 404 as a routine
	// churn outcome, not an error.
	n, err := tgt.Neighbors(99, 4)
	if err != nil || n != 0 {
		t.Fatalf("Neighbors(dead) = %d, %v; want 0, nil", n, err)
	}
	if _, found, err := tgt.Lookup([]float64{3}); err != nil || !found {
		t.Fatalf("Lookup = found=%v err=%v", found, err)
	}
	if _, _, err := (HTTPTarget{Base: srv.URL, Client: &http.Client{}, Pub: pub}).Lookup([]float64{1, 2}); err == nil {
		t.Fatal("dimension-mismatch lookup over HTTP did not error")
	}
}

// EpochTarget queries the publisher's current epoch directly: the
// in-process Target the tests drive Run against.
type EpochTarget struct {
	Pub *serve.Publisher
}

func (t EpochTarget) Epoch() *serve.Epoch { return t.Pub.Current() }

func (t EpochTarget) Lookup(q []float64) (sim.NodeID, bool, error) {
	ep := t.Pub.Current()
	if ep == nil {
		return sim.None, false, errors.New("no epoch")
	}
	id, _, _, ok := ep.Lookup(q)
	return id, ok, nil
}

func (t EpochTarget) Neighbors(id sim.NodeID, k int) (int, error) {
	ep := t.Pub.Current()
	if ep == nil {
		return 0, errors.New("no epoch")
	}
	var buf [serve.DefaultFanout]sim.NodeID
	nbs, ok := ep.AppendNeighbors(buf[:0], id, k)
	if !ok {
		// Dead in a newer epoch than the one that named it: a routine
		// churn outcome, not an error.
		return 0, nil
	}
	return len(nbs), nil
}
