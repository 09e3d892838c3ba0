package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// A Schedule is a replayable node-availability trace: the exact sequence
// of join and leave events a population experiences, round by round. Real
// availability traces (loaded from CSV) and adversarial scripts (flash
// crowds, rolling partitions, correlated rack failures, heterogeneous
// lifetimes — see the generators of gen.go)
// both reduce to this one type, so they all replay through the same
// deterministic engine path (scenario.DriveSchedule).
//
// The canonical form fixes the replay semantics completely:
//
//   - Events are sorted by (Round, Op, Node) with joins before leaves.
//   - Events of one round fire at the START of that round, before the
//     round's exchanges — the same discipline as the paper's phase events,
//     which is what makes a checkpoint taken at round start resume
//     byte-identically (the resumed loop re-fires the round's pending
//     events exactly once).
//   - Node identities are dense: the initial population is [0, Initial)
//     and the k-th join of the canonical order creates node Initial+k,
//     mirroring how the engine assigns IDs. A leave names a node that has
//     joined (or is initial) and leaves at most once — crashed nodes never
//     return; a returning machine is a fresh, empty node, as in the paper.
type Schedule struct {
	// Initial is the population present before round 0.
	Initial int
	// Events is the canonical event sequence (see Canonicalize).
	Events []Event
}

// Event is one availability transition.
type Event struct {
	// Round is when the event fires (at round start, before exchanges).
	Round int
	// Op is the transition kind.
	Op Op
	// Node is the identity involved: for OpLeave the node that crashes;
	// for OpJoin the identity the new node must receive (validated to be
	// dense and sequential, matching engine assignment order).
	Node int
}

// Op is an availability transition kind.
type Op uint8

const (
	// OpJoin adds a fresh, empty-handed node.
	OpJoin Op = iota + 1
	// OpLeave crashes a node (crash-stop: it never returns).
	OpLeave
)

// String returns the CSV token of the op.
func (o Op) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func parseOp(s string) (Op, error) {
	switch s {
	case "join":
		return OpJoin, nil
	case "leave":
		return OpLeave, nil
	}
	return 0, fmt.Errorf("unknown op %q (want join|leave)", s)
}

// Universe returns the total number of distinct node identities the
// schedule ever creates: the initial population plus every join.
func (s *Schedule) Universe() int {
	joins := 0
	for _, ev := range s.Events {
		if ev.Op == OpJoin {
			joins++
		}
	}
	return s.Initial + joins
}

// Canonicalize sorts the events into canonical replay order — by (Round,
// Op, Node), joins before leaves within a round — and then validates the
// schedule, returning the first violation. Generators and parsers both
// end with it, so every Schedule handed to the engine is in one known-good
// form.
func (s *Schedule) Canonicalize() error {
	sort.Slice(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Node < b.Node
	})
	return s.Validate()
}

// Validate checks a canonically ordered schedule without reordering it:
// non-negative rounds and nodes, known ops, canonical order, dense
// sequential join identities, every leave targeting a node that exists
// and is alive at that point (joined at or before the leave round, never
// left before), and no duplicate events. Capacity is checked against the
// universe: no event may name a node outside [0, Universe()).
func (s *Schedule) Validate() error {
	if s.Initial < 0 {
		return fmt.Errorf("trace: schedule has negative initial population %d", s.Initial)
	}
	universe := s.Universe()
	// joinRound[node-Initial] is the join round of each joined node;
	// initial nodes exist from the start. leftAt uses -1 for "still in".
	nextJoin := s.Initial
	joinRound := make([]int, 0, universe-s.Initial)
	left := make(map[int]int, len(s.Events)/2+1)
	var prev Event
	for i, ev := range s.Events {
		if ev.Round < 0 {
			return fmt.Errorf("trace: event %d has negative round %d", i, ev.Round)
		}
		if ev.Op != OpJoin && ev.Op != OpLeave {
			return fmt.Errorf("trace: event %d has unknown op %d", i, ev.Op)
		}
		if ev.Node < 0 {
			return fmt.Errorf("trace: event %d has negative node %d", i, ev.Node)
		}
		if ev.Node >= universe {
			return fmt.Errorf("trace: event %d names node %d outside the universe [0,%d)", i, ev.Node, universe)
		}
		if i > 0 {
			if ev.Round < prev.Round ||
				(ev.Round == prev.Round && ev.Op < prev.Op) ||
				(ev.Round == prev.Round && ev.Op == prev.Op && ev.Node < prev.Node) {
				return fmt.Errorf("trace: event %d out of canonical order (run Canonicalize)", i)
			}
			if ev == prev {
				return fmt.Errorf("trace: duplicate event %s of node %d at round %d", ev.Op, ev.Node, ev.Round)
			}
		}
		switch ev.Op {
		case OpJoin:
			if ev.Node != nextJoin {
				return fmt.Errorf("trace: event %d joins node %d, want the next sequential identity %d", i, ev.Node, nextJoin)
			}
			joinRound = append(joinRound, ev.Round)
			nextJoin++
		case OpLeave:
			if ev.Node >= s.Initial {
				j := ev.Node - s.Initial
				if j >= len(joinRound) {
					return fmt.Errorf("trace: event %d: node %d leaves before it joined", i, ev.Node)
				}
				if joinRound[j] > ev.Round {
					return fmt.Errorf("trace: event %d: node %d leaves at round %d but joins at round %d", i, ev.Node, ev.Round, joinRound[j])
				}
			}
			if r, gone := left[ev.Node]; gone {
				return fmt.Errorf("trace: event %d: node %d leaves twice (first at round %d)", i, ev.Node, r)
			}
			left[ev.Node] = ev.Round
		}
		prev = ev
	}
	return nil
}

// scheduleDirective is the first line of a schedule CSV: a comment (so
// generic CSV tooling skips it) carrying the format version and the
// initial population, which no event row encodes.
const scheduleMagic = "# polystyrene-schedule v1 initial="

// scheduleHeader is the fixed event-row header.
const scheduleHeader = "round,op,node"

// ReadScheduleCSV parses a schedule CSV, canonicalizes and validates it.
// The format is a directive line carrying the initial population, the
// event header and one row per event:
//
//	# polystyrene-schedule v1 initial=3200
//	round,op,node
//	20,leave,1612
//	100,join,3200
//
// Blank lines and non-directive comment lines are skipped; malformed
// rows, out-of-range values, duplicate or impossible events are all
// rejected with the offending line number — never a panic.
func ReadScheduleCSV(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s := &Schedule{Initial: -1}
	sawHeader := false
	line := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		line++
		if rest, ok := strings.CutPrefix(text, scheduleMagic); ok {
			if s.Initial >= 0 {
				return nil, fmt.Errorf("trace: line %d: duplicate schedule directive", line)
			}
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("trace: line %d: bad initial population %q", line, rest)
			}
			s.Initial = n
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if s.Initial < 0 {
			return nil, fmt.Errorf("trace: line %d: schedule CSV must start with %q", line, scheduleMagic+"N")
		}
		if !sawHeader {
			if text != scheduleHeader {
				return nil, fmt.Errorf("trace: line %d: header %q, want %q", line, text, scheduleHeader)
			}
			sawHeader = true
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d has %d fields, want 3 (round,op,node)", line, len(fields))
		}
		round, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad round %q", line, fields[0])
		}
		op, err := parseOp(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		node, err := strconv.Atoi(strings.TrimSpace(fields[2]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node %q", line, fields[2])
		}
		s.Events = append(s.Events, Event{Round: round, Op: op, Node: node})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Initial < 0 {
		return nil, fmt.Errorf("trace: empty input (no schedule directive)")
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: missing %q header row", scheduleHeader)
	}
	if err := s.Canonicalize(); err != nil {
		return nil, err
	}
	return s, nil
}
