package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// Frontend is the JSON-over-HTTP serving surface. Every handler loads
// the publisher's current epoch once and answers entirely from it, so a
// response is internally consistent (positions, neighbours and holders
// from the same round) and stamps the epoch's sequence number and round.
// Before the first published epoch and after Close the frontend answers
// 503 with a machine-readable state ("warming" / "draining") and a
// Retry-After hint; malformed queries get 400 and dead or unknown nodes
// 404 — served input is untrusted, so nothing a client sends can panic
// the service.
type Frontend struct {
	pub     *Publisher
	mux     *http.ServeMux
	queries atomic.Uint64
}

// NewFrontend returns a frontend serving pub's epochs:
//
//	GET /lookup?q=x,y,...   greedy nearest-node lookup at a point
//	GET /neighbors?id=N&k=K a node's captured closest neighbours
//	GET /node/{id}          position + load + neighbours + guest points
//	GET /stats              epoch and service counters
//	GET /healthz            200 once an epoch is published, else 503
func NewFrontend(pub *Publisher) *Frontend {
	f := &Frontend{pub: pub, mux: http.NewServeMux()}
	f.mux.HandleFunc("GET /lookup", f.handleLookup)
	f.mux.HandleFunc("GET /neighbors", f.handleNeighbors)
	f.mux.HandleFunc("GET /node/{id}", f.handleNode)
	f.mux.HandleFunc("GET /stats", f.handleStats)
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	return f
}

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// Queries returns how many epoch-backed queries (lookup, neighbors,
// node) the frontend has answered successfully.
func (f *Frontend) Queries() uint64 { return f.queries.Load() }

type errResponse struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// epoch resolves the current epoch or writes the 503 warming/draining
// answer and returns nil.
func (f *Frontend) epoch(w http.ResponseWriter) *Epoch {
	if ep := f.pub.Current(); ep != nil {
		return ep
	}
	state := "warming"
	if f.pub.Closed() {
		state = "draining"
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errResponse{
		Error: "no epoch available", State: state,
	})
	return nil
}

// parseNodeID parses a client-supplied node id, enforcing the serving
// contract up front: ids are non-negative and bounded by the epoch
// address space (int32 — the engine's dense tables index by NodeID, and
// every published population fits). Parsing in 64 bits first means an
// id like 4294967296 or -1 is rejected here as the client error it is,
// instead of wrapping through the int conversion and turning into a
// spurious 404 (or, on 32-bit builds, an implementation-defined value).
func parseNodeID(s string) (sim.NodeID, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 || v > maxNodeID {
		return 0, false
	}
	return sim.NodeID(v), true
}

const maxNodeID = 1<<31 - 1

// vecPool recycles the query-vector scratch across requests so parsing a
// lookup point costs no steady-state allocation.
var vecPool = sync.Pool{
	New: func() any { s := make([]float64, 0, 64); return &s },
}

// errNonFinite refuses a NaN or infinite query coordinate: no node is
// at a finite distance from it, so it has no nearest node to answer with.
var errNonFinite = errors.New("non-finite coordinate")

// parseVec parses a comma-separated float vector ("1.5,2,-0.25") into
// dst, returning the extended slice. Every component must be finite.
func parseVec(s string, dst []float64) ([]float64, error) {
	for s != "" {
		field := s
		if i := strings.IndexByte(s, ','); i >= 0 {
			field, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return dst, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, errNonFinite
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type lookupResponse struct {
	Epoch    uint64     `json:"epoch"`
	Round    int        `json:"round"`
	Found    bool       `json:"found"`
	Node     sim.NodeID `json:"node"`
	Distance float64    `json:"distance"`
	Hops     int        `json:"hops"`
}

func (f *Frontend) handleLookup(w http.ResponseWriter, r *http.Request) {
	ep := f.epoch(w)
	if ep == nil {
		return
	}
	qs := r.URL.Query().Get("q")
	if qs == "" {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "missing q parameter"})
		return
	}
	bufp := vecPool.Get().(*[]float64)
	q, err := parseVec(qs, (*bufp)[:0])
	*bufp = q
	if err == nil && len(q) != ep.Dim() {
		writeJSON(w, http.StatusBadRequest, errResponse{
			Error: "q has dimension " + strconv.Itoa(len(q)) + ", space wants " + strconv.Itoa(ep.Dim()),
		})
		vecPool.Put(bufp)
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad q: " + err.Error()})
		vecPool.Put(bufp)
		return
	}
	id, dist, hops, ok := ep.Lookup(q)
	vecPool.Put(bufp)
	f.queries.Add(1)
	writeJSON(w, http.StatusOK, lookupResponse{
		Epoch: ep.Seq, Round: ep.Round,
		Found: ok, Node: id, Distance: dist, Hops: hops,
	})
}

type neighborsResponse struct {
	Epoch     uint64       `json:"epoch"`
	Round     int          `json:"round"`
	ID        sim.NodeID   `json:"id"`
	Neighbors []sim.NodeID `json:"neighbors"`
}

func (f *Frontend) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	ep := f.epoch(w)
	if ep == nil {
		return
	}
	id, ok := parseNodeID(r.URL.Query().Get("id"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad id: want an integer in [0, 2^31)"})
		return
	}
	k := ep.K
	if ks := r.URL.Query().Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k < 0 {
			writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad k"})
			return
		}
	}
	// Clamp before sizing the result: the epoch can never answer more
	// than its captured K-row width, so an arbitrary client k must not
	// size the allocation (k=1e9 would otherwise reserve gigabytes per
	// request before AppendNeighbors capped it).
	if k > ep.K {
		k = ep.K
	}
	nbs, ok := ep.AppendNeighbors(make([]sim.NodeID, 0, k), id, k)
	if !ok {
		writeJSON(w, http.StatusNotFound, errResponse{Error: "node dead or unknown in this epoch"})
		return
	}
	f.queries.Add(1)
	writeJSON(w, http.StatusOK, neighborsResponse{
		Epoch: ep.Seq, Round: ep.Round, ID: id, Neighbors: nbs,
	})
}

type nodeResponse struct {
	Epoch     uint64          `json:"epoch"`
	Round     int             `json:"round"`
	ID        sim.NodeID      `json:"id"`
	Position  []float64       `json:"position"`
	Guests    int             `json:"guests"`
	Ghosts    int             `json:"ghosts"`
	Neighbors []sim.NodeID    `json:"neighbors"`
	GuestIDs  []space.PointID `json:"guest_ids,omitempty"`
}

func (f *Frontend) handleNode(w http.ResponseWriter, r *http.Request) {
	ep := f.epoch(w)
	if ep == nil {
		return
	}
	nid, ok := parseNodeID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad id: want an integer in [0, 2^31)"})
		return
	}
	pos, ok := ep.Position(nid)
	if !ok {
		writeJSON(w, http.StatusNotFound, errResponse{Error: "node dead or unknown in this epoch"})
		return
	}
	guests, _ := ep.NumGuests(nid)
	ghosts, _ := ep.NumGhosts(nid)
	nbs, _ := ep.AppendNeighbors(make([]sim.NodeID, 0, ep.K), nid, ep.K)
	gids, _ := ep.AppendGuestIDs(make([]space.PointID, 0, guests), nid)
	f.queries.Add(1)
	writeJSON(w, http.StatusOK, nodeResponse{
		Epoch: ep.Seq, Round: ep.Round, ID: nid,
		Position: pos, Guests: guests, Ghosts: ghosts,
		Neighbors: nbs, GuestIDs: gids,
	})
}

type statsResponse struct {
	Epoch         uint64 `json:"epoch"`
	Round         int    `json:"round"`
	Live          int    `json:"live"`
	Dim           int    `json:"dim"`
	K             int    `json:"k"`
	Points        int    `json:"points"`
	HolderEntries int    `json:"holder_entries"`
	Queries       uint64 `json:"queries"`
}

func (f *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	ep := f.epoch(w)
	if ep == nil {
		return
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Epoch: ep.Seq, Round: ep.Round,
		Live: ep.NumLive(), Dim: ep.Dim(), K: ep.K,
		Points: ep.NumPoints(), HolderEntries: ep.HolderEntries(),
		Queries: f.queries.Load(),
	})
}

type healthResponse struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	Round  int    `json:"round"`
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ep := f.pub.Current()
	if ep == nil {
		state := "warming"
		if f.pub.Closed() {
			state = "draining"
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "not serving", State: state})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Epoch: ep.Seq, Round: ep.Round})
}
