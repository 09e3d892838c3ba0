package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"polystyrene/internal/serve"
	"polystyrene/internal/sim"
	"polystyrene/internal/xrand"
)

// client is the bench's own HTTP/1.1 client: one keep-alive connection,
// requests written from pre-built bytes and responses read into a reused
// buffer, so that what a request costs is the server's path and the
// loopback, not a general-purpose client. (internal/serve/loadgen is
// program code and stays unused.)
type client struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *client) close() { c.c.Close() }

// get sends one pre-built request and returns the status and the body.
// The body is only valid until the next call.
func (c *client) get(req []byte) (status int, body []byte, err error) {
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length := -1
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const h = "content-length:"
		if len(line) > len(h) && bytes.EqualFold(line[:len(h)], []byte(h)) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(h):]))); err != nil {
				return 0, nil, fmt.Errorf("content-length %q: %w", line, err)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err = io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// slicePlan is the request sequence of an HTTP slice: n lookups at
// seeded points of the torus, every 4th followed by a neighbours query
// for a seeded live node. Every slice of a run sends the same plan.
type slicePlan struct {
	reqs [][]byte
	// For request i: q is the lookup point (nil for a neighbours query)
	// and id the node a neighbours query asks about.
	q  [][]float64
	id []sim.NodeID
}

const neighborsK = 4

func newSlicePlan(seed uint64, ep *serve.Epoch, w, h float64, lookups int) *slicePlan {
	rng := xrand.New(seed ^ 0x51ce9e7)
	p := &slicePlan{}
	for i := 0; i < lookups; i++ {
		q := []float64{rng.Float64() * w, rng.Float64() * h}
		p.add("/lookup?q="+strconv.FormatFloat(q[0], 'g', -1, 64)+","+strconv.FormatFloat(q[1], 'g', -1, 64), q, sim.None)
		if i%4 == 3 {
			id := ep.NodeAt(rng.Intn(ep.NumLive()))
			p.add("/neighbors?id="+strconv.Itoa(int(id))+"&k="+strconv.Itoa(neighborsK), nil, id)
		}
	}
	return p
}

func (p *slicePlan) add(path string, q []float64, id sim.NodeID) {
	p.reqs = append(p.reqs, []byte("GET "+path+" HTTP/1.1\r\nHost: bench\r\n\r\n"))
	p.q = append(p.q, q)
	p.id = append(p.id, id)
}

// sliceResult is what one slice measured. Bodies are kept so that
// answers are checked after, not inside, the timed interval.
type sliceResult struct {
	wall        float64 // seconds, whole slice
	lookupUS    []float64
	neighborsUS []float64
	status      []int
	errs        []error
	bodies      [][]byte
}

func (c *client) runSlice(p *slicePlan) *sliceResult {
	res := &sliceResult{
		status: make([]int, len(p.reqs)),
		errs:   make([]error, len(p.reqs)),
		bodies: make([][]byte, len(p.reqs)),
	}
	arena := make([]byte, 0, 160*len(p.reqs))
	start := time.Now()
	for i, req := range p.reqs {
		t0 := time.Now()
		status, body, err := c.get(req)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		res.status[i], res.errs[i] = status, err
		if err != nil {
			continue
		}
		off := len(arena)
		arena = append(arena, body...)
		res.bodies[i] = arena[off:len(arena):len(arena)]
		if p.q[i] != nil {
			res.lookupUS = append(res.lookupUS, us)
		} else {
			res.neighborsUS = append(res.neighborsUS, us)
		}
	}
	res.wall = time.Since(start).Seconds()
	return res
}

type lookupAnswer struct {
	Epoch    uint64  `json:"epoch"`
	Found    bool    `json:"found"`
	Node     int     `json:"node"`
	Distance float64 `json:"distance"`
	Hops     int     `json:"hops"`
}

type neighborsAnswer struct {
	Epoch     uint64 `json:"epoch"`
	ID        int    `json:"id"`
	Neighbors []int  `json:"neighbors"`
}

// verify checks every answer of the slice against the in-process epoch
// and returns one line per failed request.
func (res *sliceResult) verify(p *slicePlan, ep *serve.Epoch) []string {
	var problems []string
	bad := func(i int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("request %d (%s): ", i, bytes.Fields(p.reqs[i])[1])+fmt.Sprintf(format, args...))
	}
	var nbs []sim.NodeID
	for i := range p.reqs {
		switch {
		case res.errs[i] != nil:
			bad(i, "%v", res.errs[i])
		case res.status[i] != 200:
			bad(i, "status %d: %s", res.status[i], bytes.TrimSpace(res.bodies[i]))
		case p.q[i] != nil:
			var a lookupAnswer
			if err := json.Unmarshal(res.bodies[i], &a); err != nil {
				bad(i, "%v", err)
				continue
			}
			id, dist, hops, ok := ep.Lookup(p.q[i])
			if a.Epoch != ep.Seq || a.Found != ok || a.Node != int(id) || a.Distance != dist || a.Hops != hops {
				bad(i, "answered %+v, Epoch.Lookup says node %d dist %v hops %d in epoch %d", a, id, dist, hops, ep.Seq)
			}
		default:
			var a neighborsAnswer
			if err := json.Unmarshal(res.bodies[i], &a); err != nil {
				bad(i, "%v", err)
				continue
			}
			nbs, _ = ep.AppendNeighbors(nbs[:0], p.id[i], neighborsK)
			same := a.Epoch == ep.Seq && a.ID == int(p.id[i]) && len(a.Neighbors) == len(nbs)
			for j := 0; same && j < len(nbs); j++ {
				same = a.Neighbors[j] == int(nbs[j])
			}
			if !same {
				bad(i, "answered %+v, Epoch.AppendNeighbors says %v in epoch %d", a, nbs, ep.Seq)
			}
		}
	}
	return problems
}
