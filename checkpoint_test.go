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
