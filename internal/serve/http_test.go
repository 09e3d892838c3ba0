package serve

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"testing"

	"polystyrene/internal/space"
)

func getJSON(t *testing.T, f *Frontend, url string, wantStatus int, into any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d (%s), want %d", url, rec.Code, rec.Body.String(), wantStatus)
	}
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
}

func TestFrontendWarmingAndDraining(t *testing.T) {
	p := NewPublisher(4)
	f := NewFrontend(p)
	var er errResponse
	getJSON(t, f, "/lookup?q=1", 503, &er)
	if er.State != "warming" {
		t.Fatalf("pre-epoch state = %q, want warming", er.State)
	}
	getJSON(t, f, "/healthz", 503, &er)
	if er.State != "warming" {
		t.Fatalf("healthz state = %q, want warming", er.State)
	}
	p.Publish(newFakeSource(8))
	getJSON(t, f, "/healthz", 200, nil)
	p.Close()
	getJSON(t, f, "/lookup?q=1", 503, &er)
	if er.State != "draining" {
		t.Fatalf("post-Close state = %q, want draining", er.State)
	}
	getJSON(t, f, "/healthz", 503, &er)
	if er.State != "draining" {
		t.Fatalf("post-Close healthz state = %q, want draining", er.State)
	}
}

func TestFrontendEndpoints(t *testing.T) {
	fs := newFakeSource(16)
	fs.live[3] = false
	fs.round = 5
	fs.np = 3
	fs.guests[2] = []space.PointID{0, 1}
	fs.guests[7] = []space.PointID{1}
	fs.ghosts[7] = 2
	p := NewPublisher(4)
	f := NewFrontend(p)
	p.Publish(fs)

	var lr lookupResponse
	getJSON(t, f, "/lookup?q=6.8", 200, &lr)
	if !lr.Found || lr.Node != 7 || lr.Epoch != 1 || lr.Round != 5 {
		t.Fatalf("lookup = %+v, want node 7 @ epoch 1 round 5", lr)
	}

	var nr neighborsResponse
	getJSON(t, f, "/neighbors?id=2&k=3", 200, &nr)
	if nr.ID != 2 || len(nr.Neighbors) != 3 || nr.Neighbors[0] != 1 {
		t.Fatalf("neighbors = %+v", nr)
	}
	if nr.Epoch != 1 || nr.Round != 5 {
		t.Fatalf("neighbors missing epoch stamp: %+v", nr)
	}

	var node nodeResponse
	getJSON(t, f, "/node/7", 200, &node)
	if node.Guests != 1 || node.Ghosts != 2 || node.Position[0] != 7 {
		t.Fatalf("node = %+v", node)
	}
	if len(node.GuestIDs) != 1 || node.GuestIDs[0] != 1 {
		t.Fatalf("node guest IDs = %v, want [1]", node.GuestIDs)
	}

	var st statsResponse
	getJSON(t, f, "/stats", 200, &st)
	if st.Live != 15 || st.Points != 3 || st.HolderEntries != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Queries != 3 {
		t.Fatalf("stats queries = %d, want 3", st.Queries)
	}
	if f.Queries() != 3 {
		t.Fatalf("Queries() = %d, want 3", f.Queries())
	}
}

func TestFrontendBadInput(t *testing.T) {
	p := NewPublisher(4)
	f := NewFrontend(p)
	p.Publish(newFakeSource(8))

	getJSON(t, f, "/lookup", 400, nil)           // missing q
	getJSON(t, f, "/lookup?q=abc", 400, nil)     // unparsable
	getJSON(t, f, "/lookup?q=1,2", 400, nil)     // wrong dimension
	getJSON(t, f, "/neighbors?id=zap", 400, nil) // bad id
	getJSON(t, f, "/neighbors?id=1&k=-2", 400, nil)
	getJSON(t, f, "/neighbors?id=99", 404, nil) // unknown node
	getJSON(t, f, "/node/99", 404, nil)
	getJSON(t, f, "/node/banana", 400, nil)
	if f.Queries() != 0 {
		t.Fatalf("failed requests counted as queries: %d", f.Queries())
	}
}

// TestLookupRejectsNonFiniteQuery pins that a query with a NaN or
// infinite coordinate is a client error: 400 with a JSON error naming the
// cause, never a 200 whose body the JSON encoder could not write, and it
// is not counted as a served query.
func TestLookupRejectsNonFiniteQuery(t *testing.T) {
	p := NewPublisher(4)
	f := NewFrontend(p)
	p.Publish(newFakeSource(8))
	for _, q := range []string{"NaN", "Inf", "-Inf", "+inf", "NaN,NaN", "Inf,1", "1,NaN", "-Inf,-Inf"} {
		var er errResponse
		getJSON(t, f, "/lookup?q="+url.QueryEscape(q), 400, &er)
		if er.Error != "bad q: non-finite coordinate" {
			t.Fatalf("q=%s: error %q, want %q", q, er.Error, "bad q: non-finite coordinate")
		}
	}
	if f.Queries() != 0 {
		t.Fatalf("non-finite lookups counted as queries: %d", f.Queries())
	}
}

// TestFrontendNodeIDRange pins the id parsing contract of both
// id-taking endpoints: out-of-range ids — negative, beyond the int32
// node address space, or beyond int64 entirely — are client errors
// answered 400 before any epoch lookup, never wrapped into a NodeID
// that would alias a real node or surface as a spurious 404. The
// largest representable id is in range and gets the honest 404.
func TestFrontendNodeIDRange(t *testing.T) {
	p := NewPublisher(4)
	f := NewFrontend(p)
	p.Publish(newFakeSource(8))

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"neighbors ok", "/neighbors?id=2", 200},
		{"neighbors negative", "/neighbors?id=-1", 400},
		{"neighbors just past int32", "/neighbors?id=2147483648", 400},
		{"neighbors wraps to small int", "/neighbors?id=4294967297", 400},
		{"neighbors past int64", "/neighbors?id=99999999999999999999", 400},
		{"neighbors empty id", "/neighbors?id=", 400},
		{"neighbors not a number", "/neighbors?id=2.5", 400},
		{"neighbors max int32 is honest 404", "/neighbors?id=2147483647", 404},
		{"node ok", "/node/2", 200},
		{"node negative", "/node/-1", 400},
		{"node just past int32", "/node/2147483648", 400},
		{"node wraps to small int", "/node/4294967297", 400},
		{"node past int64", "/node/99999999999999999999", 400},
		{"node max int32 is honest 404", "/node/2147483647", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			getJSON(t, f, tc.url, tc.want, nil)
		})
	}
}

// TestFrontendNeighborsKClamp pins the k sizing contract: the epoch can
// never answer more than its captured K-row width, so a client k above
// it is clamped before the result slice is sized — a huge k must behave
// exactly like k=K instead of reserving client-controlled memory per
// request (and the clamp must not disturb small-k answers).
func TestFrontendNeighborsKClamp(t *testing.T) {
	p := NewPublisher(4)
	f := NewFrontend(p)
	p.Publish(newFakeSource(16))

	var ref neighborsResponse
	getJSON(t, f, "/neighbors?id=5", 200, &ref) // k omitted: the full K row

	cases := []struct {
		name    string
		url     string
		wantLen int
	}{
		{"k above row width clamps", "/neighbors?id=5&k=7", len(ref.Neighbors)},
		{"absurd k clamps", "/neighbors?id=5&k=1000000000", len(ref.Neighbors)},
		{"k equal to row width", "/neighbors?id=5&k=4", len(ref.Neighbors)},
		{"small k honoured", "/neighbors?id=5&k=2", 2},
		{"k zero", "/neighbors?id=5&k=0", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var nr neighborsResponse
			getJSON(t, f, tc.url, 200, &nr)
			if len(nr.Neighbors) != tc.wantLen {
				t.Fatalf("%s: %d neighbors, want %d (full row %v)", tc.url, len(nr.Neighbors), tc.wantLen, ref.Neighbors)
			}
		})
	}
}

func TestFrontendLookupOnEmptyEpoch(t *testing.T) {
	fs := newFakeSource(8)
	for i := range fs.live {
		fs.live[i] = false
	}
	p := NewPublisher(4)
	f := NewFrontend(p)
	p.Publish(fs)
	var lr lookupResponse
	getJSON(t, f, "/lookup?q=1", 200, &lr)
	if lr.Found || lr.Node != -1 {
		t.Fatalf("empty-epoch lookup = %+v, want found=false node=-1", lr)
	}
}
