package polystyrene

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"polystyrene/internal/scenario"
	"polystyrene/internal/snap"
)

// systemFingerprint captures everything a facade user can observe.
func systemFingerprint(s *System) map[string]float64 {
	fp := map[string]float64{
		"round":       float64(s.Round()),
		"live":        float64(s.NumLive()),
		"homogeneity": s.Homogeneity(),
		"proximity":   s.Proximity(),
		"reliability": s.Reliability(),
		"datapoints":  s.DataPointsPerNode(),
		"msgcost":     s.LastRoundMessageCost(),
	}
	for _, id := range s.Live() {
		p := s.NodePosition(id)
		fp["x"] += p[0] * float64(id+1)
		fp["y"] += p[1] * float64(id+1)
	}
	return fp
}

func TestSystemSnapshotResumeByteIdentical(t *testing.T) {
	run := func(exPar int, checkpoint bool) map[string]float64 {
		cfg := SystemConfig{
			Seed:                42,
			Space:               Torus(20, 10),
			Shape:               TorusShape(20, 10, 1),
			ReplicationFactor:   4,
			DetectionDelay:      2,
			ExchangeParallelism: exPar,
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(10)
		sys.CrashRegion(func(p []float64) bool { return p[0] >= 10 })
		sys.Run(3)

		if checkpoint {
			var buf bytes.Buffer
			if err := sys.Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			sys = restored
		}
		sys.Run(8)
		return systemFingerprint(sys)
	}

	for _, exPar := range []int{0, 2} {
		want := run(exPar, false)
		got := run(exPar, true)
		for k, w := range want {
			if got[k] != w {
				t.Errorf("exPar=%d: %s diverged after snapshot/restore: %v != %v", exPar, k, got[k], w)
			}
		}
	}
}

func TestSystemRestoreRejectsMismatch(t *testing.T) {
	sys := torusSystem(t, 7, false)
	sys.Run(5)
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other, err := NewSystem(SystemConfig{
		Seed:              7,
		Space:             Torus(20, 10),
		Shape:             TorusShape(20, 10, 1),
		ReplicationFactor: 6, // differs
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into a differently configured system accepted")
	}

	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 1
	same := torusSystem(t, 8, false)
	if err := same.Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if err := same.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if same.Round() != sys.Round() || same.NumLive() != sys.NumLive() {
		t.Fatal("restored system shape diverged")
	}
}

// checkpointOwner is one owner of the shared checkpoint layout
// (scenario.Stack's WriteCheckpoint and RestoreCheckpoint), reduced to
// its snapshot and restore.
type checkpointOwner struct {
	snapshot func(io.Writer) error
	restore  func(io.Reader) error
}

func ownerBytes(t *testing.T, o checkpointOwner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointSkeletonRefusals drives the checkpoint layout that System
// and Scenario share through both owners. A checkpoint of the other
// owner's kind, of a configuration with another digest, or with a
// flipped body byte is refused before the engine restores, and the
// target re-snapshots to its own bytes; a well-formed, re-sealed body
// with one byte after the engine state is refused as trailing bytes.
func TestCheckpointSkeletonRefusals(t *testing.T) {
	owners := []struct {
		name, kind, otherKind string
		// build returns an owner of replication factor k after rounds
		// rounds.
		build func(t *testing.T, k, rounds int) checkpointOwner
	}{
		{"System", systemKind, scenario.SnapshotKind, func(t *testing.T, k, rounds int) checkpointOwner {
			sys, err := NewSystem(SystemConfig{
				Seed:              11,
				Space:             Torus(8, 4),
				Shape:             TorusShape(8, 4, 1),
				ReplicationFactor: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			sys.Run(rounds)
			// A late joiner gives the pinned section an entry.
			if _, err := sys.AddNodes([][]float64{{0.5, 0.5}}); err != nil {
				t.Fatal(err)
			}
			return checkpointOwner{sys.Snapshot, sys.Restore}
		}},
		{"Scenario", scenario.SnapshotKind, systemKind, func(t *testing.T, k, rounds int) checkpointOwner {
			sc := scenario.MustNew(scenario.Config{Seed: 11, W: 8, H: 4, Polystyrene: true, K: k})
			t.Cleanup(sc.Close)
			sc.Run(rounds)
			return checkpointOwner{sc.SnapshotTo, sc.Restore}
		}},
	}
	for _, o := range owners {
		t.Run(o.name, func(t *testing.T) {
			good := ownerBytes(t, o.build(t, 4, 6))
			body, err := snap.Decode(o.kind, good)
			if err != nil {
				t.Fatal(err)
			}
			flipped := append([]byte(nil), good...)
			flipped[len(flipped)/2] ^= 0x20

			refusals := []struct {
				name string
				data []byte
			}{
				{"wrong envelope kind", snap.Encode(o.otherKind, body)},
				{"digest mismatch", ownerBytes(t, o.build(t, 6, 6))},
				{"flipped body byte", flipped},
			}
			for _, c := range refusals {
				target := o.build(t, 4, 3)
				before := ownerBytes(t, target)
				if err := target.restore(bytes.NewReader(c.data)); err == nil {
					t.Fatalf("%s: restore accepted", c.name)
				}
				if !bytes.Equal(ownerBytes(t, target), before) {
					t.Fatalf("%s: refused restore changed the target", c.name)
				}
			}

			trailing := snap.Encode(o.kind, append(append([]byte(nil), body...), 0))
			err = o.build(t, 4, 3).restore(bytes.NewReader(trailing))
			if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
				t.Fatalf("restore of a body with a trailing byte: err = %v, want trailing bytes", err)
			}

			target := o.build(t, 4, 3)
			if err := target.restore(bytes.NewReader(good)); err != nil {
				t.Fatalf("honest checkpoint refused: %v", err)
			}
			if !bytes.Equal(ownerBytes(t, target), good) {
				t.Fatal("restored target re-snapshots to other bytes")
			}
		})
	}
}

// resealPins returns the System checkpoint good with its pinned section
// replaced by what pins writes, re-sealed in a valid envelope.
func resealPins(t *testing.T, good []byte, pins func(*snap.Writer)) []byte {
	t.Helper()
	body, err := snap.Decode(systemKind, good)
	if err != nil {
		t.Fatal(err)
	}
	r := snap.NewReader(body)
	_ = systemDigest{}.check(r)
	start := len(body) - r.Remaining()
	for n := r.Count(8); n > 0; n-- {
		r.I32()
		for c := r.Count(8); c > 0; c-- {
			r.F64()
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	end := len(body) - r.Remaining()
	var w snap.Writer
	pins(&w)
	out := append(append(append([]byte(nil), body[:start]...), w.Bytes()...), body[end:]...)
	return snap.Encode(systemKind, out)
}

// TestRestoreRefusesBadPins: a checkpoint of a 4x4 baseline system on a
// Euclidean plane with one joiner (node 16), re-sealed with a pinned
// section that leaves the joiner out, pins an original node, pins a node
// the engine state does not hold or pins a point of the wrong dimension,
// is refused before anything is restored. The system stays as it was, and
// NodePosition of the joiner still answers: an unpinned joiner would fall
// back to the torus reinjection grid, and the Euclidean plane has none.
func TestRestoreRefusesBadPins(t *testing.T) {
	build := func() *System {
		sys, err := NewSystem(SystemConfig{
			Seed:     5,
			Space:    Euclidean(2),
			Shape:    TorusShape(4, 4, 1),
			Baseline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		sys.Run(2)
		if _, err := sys.AddNodes([][]float64{{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	var buf bytes.Buffer
	if err := build().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	pin := func(id int, p ...float64) func(*snap.Writer) {
		return func(w *snap.Writer) {
			w.Count(1)
			w.I32(id)
			w.Count(len(p))
			for _, c := range p {
				w.F64(c)
			}
		}
	}
	cases := []struct {
		name, want string
		pins       func(*snap.Writer)
	}{
		{"no pins", "joiner 16 of 17 nodes has no pin", func(w *snap.Writer) { w.Count(0) }},
		{"an original node's pin", "pin for node 3", pin(3, 0.5, 0.5)},
		{"a pin past the nodes", "pin for node 17", pin(17, 0.5, 0.5)},
		{"a 3-D pin", "pin for node 16", pin(16, 0.5, 0.5, 0.5)},
	}
	for _, c := range cases {
		target := build()
		var before bytes.Buffer
		if err := target.Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		err := target.Restore(bytes.NewReader(resealPins(t, good, c.pins)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
		var after bytes.Buffer
		if err := target.Snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("%s: refused restore changed the system", c.name)
		}
		if p := target.NodePosition(16); len(p) != 2 {
			t.Fatalf("%s: joiner position %v", c.name, p)
		}
	}
	target := build()
	if err := target.Restore(bytes.NewReader(resealPins(t, good, pin(16, 0.5, 0.5)))); err != nil {
		t.Fatalf("re-sealed honest pins refused: %v", err)
	}
}

// TestSystemDoubleClose: the graceful-shutdown path closes once on the
// signal handler and once in a defer — both must be safe, and the
// system must stay readable in between.
func TestSystemDoubleClose(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Seed:                9,
		Space:               Torus(20, 10),
		Shape:               TorusShape(20, 10, 1),
		ReplicationFactor:   4,
		ExchangeParallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3)
	sys.Close()
	sys.Close()
	if sys.NumLive() == 0 {
		t.Fatal("system unreadable after double Close")
	}
}
