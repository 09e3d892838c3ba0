package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// mustCanonical builds a schedule from raw events and canonicalizes it,
// failing the test on any validation error.
func mustCanonical(t *testing.T, initial int, events ...Event) *Schedule {
	t.Helper()
	s := &Schedule{Initial: initial, Events: events}
	if err := s.Canonicalize(); err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	return s
}

func TestScheduleCSVRoundTrip(t *testing.T) {
	schedules := map[string]*Schedule{
		"empty": {Initial: 5},
		"hand": mustCanonical(t, 3,
			Event{Round: 2, Op: OpLeave, Node: 1},
			Event{Round: 4, Op: OpJoin, Node: 3},
			Event{Round: 4, Op: OpLeave, Node: 0},
			Event{Round: 9, Op: OpLeave, Node: 3},
		),
	}
	if s, err := FlashCrowd(100, 5, 40, 12); err != nil {
		t.Fatalf("FlashCrowd: %v", err)
	} else {
		schedules["flash-crowd"] = s
	}
	if s, err := UniformChurn(200, 30, 0.05, 7); err != nil {
		t.Fatalf("UniformChurn: %v", err)
	} else {
		schedules["churn"] = s
	}
	if s, err := WeibullLifetimes(150, 40, 0.7, 15, 11); err != nil {
		t.Fatalf("WeibullLifetimes: %v", err)
	} else {
		schedules["weibull"] = s
	}
	for name, s := range schedules {
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		got, err := ReadScheduleCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadScheduleCSV: %v", name, err)
		}
		// Normalize nil/empty event slices before comparing.
		if len(got.Events) == 0 && len(s.Events) == 0 {
			continue
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("%s: round-trip mismatch:\nwrote %+v\nread  %+v", name, s, got)
		}
		// A second trip must be byte-identical, not merely equivalent.
		var buf2 bytes.Buffer
		if err := got.WriteCSV(&buf2); err != nil {
			t.Fatalf("%s: re-WriteCSV: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: CSV not byte-stable across a round trip", name)
		}
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"negative initial", Schedule{Initial: -1}, "negative initial"},
		{"negative round", Schedule{Initial: 1, Events: []Event{{Round: -1, Op: OpLeave, Node: 0}}}, "negative round"},
		{"unknown op", Schedule{Initial: 1, Events: []Event{{Round: 0, Op: 9, Node: 0}}}, "unknown op"},
		{"negative node", Schedule{Initial: 1, Events: []Event{{Round: 0, Op: OpLeave, Node: -2}}}, "negative node"},
		{"outside universe", Schedule{Initial: 2, Events: []Event{{Round: 0, Op: OpLeave, Node: 5}}}, "outside the universe"},
		{"out of order", Schedule{Initial: 2, Events: []Event{
			{Round: 3, Op: OpLeave, Node: 0}, {Round: 1, Op: OpLeave, Node: 1}}}, "canonical order"},
		{"duplicate", Schedule{Initial: 2, Events: []Event{
			{Round: 1, Op: OpLeave, Node: 0}, {Round: 1, Op: OpLeave, Node: 0}}}, "duplicate"},
		{"non-sequential join", Schedule{Initial: 2, Events: []Event{{Round: 1, Op: OpJoin, Node: 5}}}, "outside the universe"},
		{"join skips identity", Schedule{Initial: 2, Events: []Event{
			{Round: 1, Op: OpJoin, Node: 3}, {Round: 2, Op: OpJoin, Node: 2}}}, "sequential identity"},
		{"leave before join", Schedule{Initial: 1, Events: []Event{
			{Round: 0, Op: OpLeave, Node: 1}, {Round: 3, Op: OpJoin, Node: 1}}}, "before it joined"},
		{"leave precedes join round", Schedule{Initial: 1, Events: []Event{
			{Round: 2, Op: OpLeave, Node: 1}, {Round: 5, Op: OpJoin, Node: 1}}}, "before it joined"},
		{"leaves twice", Schedule{Initial: 1, Events: []Event{
			{Round: 1, Op: OpLeave, Node: 0}, {Round: 4, Op: OpLeave, Node: 0}}}, "leaves twice"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid schedule", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A leave the same round as its join is legal (joins fire first).
	sameRound := Schedule{Initial: 1, Events: []Event{
		{Round: 2, Op: OpJoin, Node: 1}, {Round: 2, Op: OpLeave, Node: 1}}}
	if err := sameRound.Validate(); err != nil {
		t.Errorf("join+leave in one round must validate (joins fire first): %v", err)
	}
}

func TestReadScheduleCSVRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "no schedule directive"},
		{"no directive", "round,op,node\n1,leave,0\n", "must start with"},
		{"duplicate directive", "# polystyrene-schedule v1 initial=3\n# polystyrene-schedule v1 initial=3\n", "duplicate schedule directive"},
		{"bad initial", "# polystyrene-schedule v1 initial=x\n", "bad initial population"},
		{"negative initial", "# polystyrene-schedule v1 initial=-4\n", "bad initial population"},
		{"missing header", "# polystyrene-schedule v1 initial=3\n", "missing"},
		{"wrong header", "# polystyrene-schedule v1 initial=3\nr,o,n\n", "header"},
		{"short row", "# polystyrene-schedule v1 initial=3\nround,op,node\n1,leave\n", "fields"},
		{"bad round", "# polystyrene-schedule v1 initial=3\nround,op,node\nx,leave,0\n", "bad round"},
		{"bad op", "# polystyrene-schedule v1 initial=3\nround,op,node\n1,crash,0\n", "unknown op"},
		{"bad node", "# polystyrene-schedule v1 initial=3\nround,op,node\n1,leave,zz\n", "bad node"},
		{"out of range", "# polystyrene-schedule v1 initial=3\nround,op,node\n1,leave,7\n", "outside the universe"},
		{"negative round value", "# polystyrene-schedule v1 initial=3\nround,op,node\n-2,leave,0\n", "negative round"},
		{"duplicate leave", "# polystyrene-schedule v1 initial=3\nround,op,node\n1,leave,0\n1,leave,0\n", "duplicate"},
	}
	for _, tc := range cases {
		_, err := ReadScheduleCSV(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: parse accepted malformed input", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Unsorted but valid rows canonicalize on read.
	s, err := ReadScheduleCSV(strings.NewReader(
		"# polystyrene-schedule v1 initial=2\nround,op,node\n9,leave,1\n3,leave,0\n"))
	if err != nil {
		t.Fatalf("unsorted rows: %v", err)
	}
	if s.Events[0].Node != 0 || s.Events[1].Node != 1 {
		t.Errorf("rows not canonicalized on read: %+v", s.Events)
	}
}

func TestScheduleUniverseHorizon(t *testing.T) {
	s := mustCanonical(t, 4,
		Event{Round: 3, Op: OpJoin, Node: 4},
		Event{Round: 7, Op: OpLeave, Node: 2},
	)
	if got := s.Universe(); got != 5 {
		t.Errorf("Universe = %d, want 5", got)
	}
	if got := s.Horizon(); got != 8 {
		t.Errorf("Horizon = %d, want 8", got)
	}
	empty := &Schedule{Initial: 9}
	if got := empty.Horizon(); got != 0 {
		t.Errorf("empty Horizon = %d, want 0", got)
	}
}

// FuzzSchedule feeds arbitrary bytes to the CSV parser: it must never
// panic, and anything it accepts must be canonical and survive a
// bit-exact write/read round trip.
func FuzzSchedule(f *testing.F) {
	f.Add("# polystyrene-schedule v1 initial=3\nround,op,node\n1,leave,0\n2,join,3\n")
	f.Add("# polystyrene-schedule v1 initial=0\nround,op,node\n")
	f.Add("# polystyrene-schedule v1 initial=-1\nround,op,node\n")
	f.Add("round,op,node\n1,leave,0\n")
	f.Add("# polystyrene-schedule v1 initial=2\nround,op,node\n99999999,leave,1\n1,join,2\n")
	f.Add("# polystyrene-schedule v1 initial=2\nround,op,node\n1,leave,1\n1,leave,1\n")
	f.Add("# polystyrene-schedule v1 initial=2\nround,op,node\n5,leave,2\n")
	f.Add("# polystyrene-schedule v1 initial=2\nround,op,node\n1,crash,0\n")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadScheduleCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parser accepted a non-canonical schedule: %v", err)
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted schedule: %v", err)
		}
		s2, err := ReadScheduleCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written schedule: %v", err)
		}
		if s.Initial != s2.Initial || len(s.Events) != len(s2.Events) {
			t.Fatalf("round trip changed the schedule: %+v vs %+v", s, s2)
		}
		for i := range s.Events {
			if s.Events[i] != s2.Events[i] {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, s.Events[i], s2.Events[i])
			}
		}
	})
}

// Horizon and WriteCSV are the tests' oracles: nothing outside the tests
// needs a schedule's horizon or writes a schedule file.

// Horizon returns the first round by which every event has fired: one
// past the last event's round (events fire at round start, so the last
// event needs its round to actually run). An event-free schedule has
// horizon 0.
func (s *Schedule) Horizon() int {
	h := 0
	for _, ev := range s.Events {
		if ev.Round+1 > h {
			h = ev.Round + 1
		}
	}
	return h
}

// WriteCSV emits the schedule in the canonical form ReadScheduleCSV
// parses. The schedule must be canonical (Canonicalize has run); the
// written form round-trips bit-exactly through ReadScheduleCSV.
func (s *Schedule) WriteCSV(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s%d\n", scheduleMagic, s.Initial)
	fmt.Fprintln(bw, scheduleHeader)
	for _, ev := range s.Events {
		fmt.Fprintf(bw, "%d,%s,%d\n", ev.Round, ev.Op, ev.Node)
	}
	return bw.Flush()
}
