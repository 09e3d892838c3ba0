package sim

import (
	"testing"
	"testing/quick"
)

// recorder is a test protocol that records which nodes stepped each round.
type recorder struct {
	name     string
	inits    []NodeID
	stepped  [][]NodeID
	killOnID NodeID // if set (>=0), kills this node during its own step
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) InitNode(_ *Engine, id NodeID) { r.inits = append(r.inits, id) }

func (r *recorder) Step(e *Engine, id NodeID) {
	round := e.Round()
	for len(r.stepped) <= round {
		r.stepped = append(r.stepped, nil)
	}
	r.stepped[round] = append(r.stepped[round], id)
	if r.killOnID >= 0 && id == r.killOnID {
		e.Kill(id)
	}
}

func newRecorder(name string) *recorder { return &recorder{name: name, killOnID: None} }

func TestAddNodeInitialisesAllLayers(t *testing.T) {
	bottom := newRecorder("bottom")
	top := newRecorder("top")
	e := New(1, bottom, top)
	ids := e.AddNodes(3)
	if len(ids) != 3 || ids[2] != 2 {
		t.Fatalf("AddNodes ids = %v", ids)
	}
	if len(bottom.inits) != 3 || len(top.inits) != 3 {
		t.Fatalf("layers not initialised: %v %v", bottom.inits, top.inits)
	}
	if e.NumNodes() != 3 || e.NumLive() != 3 {
		t.Fatalf("counts: nodes=%d live=%d", e.NumNodes(), e.NumLive())
	}
}

func TestStepVisitsEveryLiveNodeOnce(t *testing.T) {
	r := newRecorder("p")
	e := New(2, r)
	e.AddNodes(10)
	e.Kill(3)
	e.RunRounds(1)
	if len(r.stepped[0]) != 9 {
		t.Fatalf("round 0 stepped %d nodes, want 9", len(r.stepped[0]))
	}
	seen := map[NodeID]bool{}
	for _, id := range r.stepped[0] {
		if id == 3 {
			t.Fatal("dead node stepped")
		}
		if seen[id] {
			t.Fatalf("node %d stepped twice", id)
		}
		seen[id] = true
	}
}

func TestStepOrderIsShuffled(t *testing.T) {
	r := newRecorder("p")
	e := New(3, r)
	e.AddNodes(50)
	e.RunRounds(2)
	same := true
	for i := range r.stepped[0] {
		if r.stepped[0][i] != r.stepped[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two consecutive rounds used the identical node order")
	}
}

func TestKillIsIdempotentAndCrashStop(t *testing.T) {
	e := New(4, newRecorder("p"))
	e.AddNodes(5)
	e.Kill(2)
	e.Kill(2)
	e.Kill(99) // unknown: no-op
	if e.NumLive() != 4 {
		t.Fatalf("live = %d, want 4", e.NumLive())
	}
	if e.Alive(2) || e.Alive(99) || e.Alive(None) {
		t.Fatal("Alive misreports")
	}
}

// TestAllAlive: AllAlive holds for every n up to NumNodes until the first
// crash, never for n past NumNodes, and never again once a node has died,
// joins afterwards included.
func TestAllAlive(t *testing.T) {
	e := New(4, newRecorder("p"))
	if !e.AllAlive(0) || e.AllAlive(1) {
		t.Fatal("empty engine: want AllAlive(0) and not AllAlive(1)")
	}
	e.AddNodes(5)
	if !e.AllAlive(5) || !e.AllAlive(3) || e.AllAlive(6) {
		t.Fatal("5 live nodes: want AllAlive(3) and AllAlive(5), not AllAlive(6)")
	}
	e.Kill(4)
	e.AddNodes(2)
	if e.AllAlive(7) || e.AllAlive(1) {
		t.Fatal("AllAlive holds after a crash")
	}
}

// peerKiller is a recorder whose first step of round killRound kills the
// node last in that round's step order, which has not stepped yet.
type peerKiller struct {
	*recorder
	killRound int
	victim    NodeID
}

func (k *peerKiller) Step(e *Engine, id NodeID) {
	k.recorder.Step(e, id)
	if e.Round() == k.killRound && k.victim == None {
		k.victim = e.order[len(e.order)-1]
		if k.victim == id {
			k.victim = e.order[len(e.order)-2]
		}
		e.Kill(k.victim)
	}
}

func TestNodeKilledMidRoundDoesNotStep(t *testing.T) {
	// A node killed by a peer's step mid-round must not be stepped later
	// in that round, by its own layer or by any layer above it.
	killer := &peerKiller{recorder: newRecorder("killer"), killRound: 1, victim: None}
	above := newRecorder("above")
	e := New(5, killer, above)
	e.AddNodes(30)
	e.RunRounds(2)
	if killer.victim == None || e.Alive(killer.victim) {
		t.Fatalf("no victim killed in round 1 (victim %d)", killer.victim)
	}
	for _, r := range []*recorder{killer.recorder, above} {
		if got := len(r.stepped[1]); got != 29 {
			t.Errorf("%s stepped %d nodes in round 1, want 29", r.name, got)
		}
		for _, id := range r.stepped[1] {
			if id == killer.victim {
				t.Errorf("%s stepped victim %d after it was killed mid-round", r.name, id)
			}
		}
	}
}

func TestSelfKillDuringStep(t *testing.T) {
	r := newRecorder("p")
	r.killOnID = 5
	e := New(6, r)
	e.AddNodes(10)
	e.RunRounds(2)
	if e.Alive(5) {
		t.Fatal("node 5 should be dead")
	}
	for _, id := range r.stepped[1] {
		if id == 5 {
			t.Fatal("dead node stepped in later round")
		}
	}
}

func TestObserversRunEachRound(t *testing.T) {
	e := New(9, newRecorder("p"))
	e.AddNodes(2)
	var rounds []int
	e.Observe(func(_ *Engine, round int) { rounds = append(rounds, round) })
	e.RunRounds(3)
	if len(rounds) != 3 || rounds[0] != 0 || rounds[2] != 2 {
		t.Fatalf("observer rounds = %v", rounds)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(10, newRecorder("p"))
	e.AddNodes(1)
	n, ok := e.RunUntil(100, func(_ *Engine, round int) bool { return round == 4 })
	if !ok || n != 5 {
		t.Fatalf("RunUntil = (%d,%v), want (5,true)", n, ok)
	}
	n, ok = e.RunUntil(3, func(*Engine, int) bool { return false })
	if ok || n != 3 {
		t.Fatalf("RunUntil exhausted = (%d,%v), want (3,false)", n, ok)
	}
}

func TestRandomLive(t *testing.T) {
	e := New(11, newRecorder("p"))
	if e.RandomLive() != None {
		t.Fatal("RandomLive on empty system should be None")
	}
	e.AddNodes(100)
	// Kill most nodes: sampling must stay exact over the dense live set.
	for i := 0; i < 99; i++ {
		e.Kill(NodeID(i))
	}
	for i := 0; i < 50; i++ {
		if got := e.RandomLive(); got != 99 {
			t.Fatalf("RandomLive = %d, want 99", got)
		}
	}
}

func TestRandomLiveUniform(t *testing.T) {
	e := New(12, newRecorder("p"))
	e.AddNodes(10)
	counts := map[NodeID]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[e.RandomLive()]++
	}
	for id, c := range counts {
		if c < trials/10-500 || c > trials/10+500 {
			t.Errorf("node %d drawn %d times, want ~%d", id, c, trials/10)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []NodeID {
		r := newRecorder("p")
		e := New(42, r)
		e.AddNodes(20)
		e.RunRounds(5)
		var flat []NodeID
		for _, round := range r.stepped {
			flat = append(flat, round...)
		}
		return flat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMeterAttribution(t *testing.T) {
	bottom := newRecorder("rps")
	e := New(13, bottom)
	e.AddNodes(1)
	charger := &chargingProtocol{units: 7}
	e2 := New(13, bottom, charger)
	e2.AddNodes(2)
	e2.RunRounds(2)
	m := e2.Meter()
	if got := m.RoundCost("charger", 0); got != 14 {
		t.Fatalf("round 0 charger cost = %d, want 14", got)
	}
	if got := m.TotalCost("charger"); got != 28 {
		t.Fatalf("total charger cost = %d, want 28", got)
	}
	if got := m.TotalRoundCost(1); got != 14 {
		t.Fatalf("total round 1 cost = %d, want 14", got)
	}
	if got := m.RoundCost("rps", 0); got != 0 {
		t.Fatalf("rps cost = %d, want 0", got)
	}
	_ = e
}

type chargingProtocol struct{ units int }

func (c *chargingProtocol) Name() string             { return "charger" }
func (c *chargingProtocol) InitNode(*Engine, NodeID) {}
func (c *chargingProtocol) Step(e *Engine, _ NodeID) { e.Charge(c.units) }

func TestChargeOutsideStepGoesToExternal(t *testing.T) {
	e := New(14)
	e.Charge(5)
	if got := e.Meter().RoundCost("external", 0); got != 5 {
		t.Fatalf("external cost = %d, want 5", got)
	}
}

func TestCostModelConstants(t *testing.T) {
	if DescriptorCost(2) != 3 {
		t.Errorf("DescriptorCost(2) = %d, want 3 (paper Sec. IV-A)", DescriptorCost(2))
	}
	if PointCost(2) != 2 {
		t.Errorf("PointCost(2) = %d, want 2 (paper Sec. IV-A)", PointCost(2))
	}
}

func TestLiveIDsSortedProperty(t *testing.T) {
	f := func(seed uint64, kills []uint8) bool {
		e := New(seed, newRecorder("p"))
		e.AddNodes(64)
		for _, k := range kills {
			e.Kill(NodeID(k % 64))
		}
		ids := e.LiveIDs()
		if len(ids) != e.NumLive() {
			return false
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		for _, id := range ids {
			if !e.Alive(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
