package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"polystyrene/internal/snap"
)

// goldenCfg is the configuration the checked-in round-6 snapshots were
// taken from: testdata/single_8x4_r6.psysnap on the single engine,
// testdata/sharded2_8x4_r6.psysnap under the since-removed 2-shard
// topology, and neighbors_8x4_r6.psysnap and fullcopy_8x4_r6.psysnap
// under the since-removed neighbour backup placement and full-copy
// backups. The files are never regenerated: they pin that snapshots
// written by earlier builds keep restoring (or fail with a diagnosis).
// The first two are version 1 envelopes, the restorable one with version
// 2, 3 and 4 twins (*.v2.psysnap, *.v3.psysnap, *.v4.psysnap), each
// written once by restoring it and snapshotting again; the two ablation
// snapshots are version 2.
var goldenCfg = Config{Seed: 31, W: 8, H: 4, Polystyrene: true}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func snapshotBytes(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreGolden restores the checked-in version 1 snapshot name and its
// version 2, 3 and 4 twins (name.v2.psysnap, name.v3.psysnap,
// name.v4.psysnap) into scenarios built from cfg, and pins the format
// changes between them: the version 1 file and its version 2 twin carry
// one body, every file restores at round, and every re-snapshot equals
// the version 4 twin's bytes. It returns the four restored scenarios, v1
// first; the test closes them.
func restoreGolden(t *testing.T, cfg Config, name string, round int) []*Scenario {
	t.Helper()
	stem := strings.TrimSuffix(name, ".psysnap")
	var goldens [][]byte
	for _, file := range []string{name, stem + ".v2.psysnap", stem + ".v3.psysnap", stem + ".v4.psysnap"} {
		goldens = append(goldens, readGolden(t, file))
	}
	v1Body, err := snap.Decode(SnapshotKind, goldens[0])
	if err != nil {
		t.Fatal(err)
	}
	v2Body, err := snap.Decode(SnapshotKind, goldens[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1Body, v2Body) {
		t.Fatal("the version 1 golden snapshot and its version 2 twin carry different bodies")
	}
	var restored []*Scenario
	for i, golden := range goldens {
		sc := MustNew(cfg)
		t.Cleanup(sc.Close)
		if err := sc.Restore(bytes.NewReader(golden)); err != nil {
			t.Fatalf("golden snapshot v%d refused: %v", i+1, err)
		}
		if got := sc.Engine.Round(); got != round {
			t.Fatalf("restored round = %d, want %d", got, round)
		}
		if !bytes.Equal(snapshotBytes(t, sc), goldens[3]) {
			t.Fatalf("re-snapshot of the version %d golden snapshot is not byte-identical to its version 4 twin", i+1)
		}
		restored = append(restored, sc)
	}
	return restored
}

// TestGoldenSnapshotRestores pins format compatibility: the checked-in
// single-engine snapshot and its version 2, 3 and 4 twins restore, each
// re-snapshots to the version 4 twin (see restoreGolden), and six more
// rounds from any of them equal an uninterrupted 12-round run.
func TestGoldenSnapshotRestores(t *testing.T) {
	restored := restoreGolden(t, goldenCfg, "single_8x4_r6.psysnap", 6)

	fresh := MustNew(goldenCfg)
	defer fresh.Close()
	fresh.Run(12)
	want := snapshotBytes(t, fresh)
	for i, sc := range restored {
		sc.Run(6)
		if !bytes.Equal(snapshotBytes(t, sc), want) {
			t.Fatalf("golden snapshot v%d + 6 rounds diverged from an uninterrupted 12-round run", i+1)
		}
	}
}

// goldenBaselineCfg and goldenBaselinePhases are the configuration and
// schedule testdata/tman_8x4_r7.psysnap was taken from: the plain T-Man
// baseline driven to round 7, past its reinjection at round 5, so the
// snapshot's pinned-position section holds the reinjected nodes.
var (
	goldenBaselineCfg    = Config{Seed: 33, W: 8, H: 4}
	goldenBaselinePhases = Phases{FailAt: 3, ReinjectAt: 5, End: 20}
)

// TestGoldenBaselineSnapshotRestores is TestGoldenSnapshotRestores for
// the baseline: the checked-in snapshot and its twins restore with their
// pinned positions, each re-snapshots to the version 4 twin, and five
// more rounds from any of them equal an uninterrupted run to round 12.
func TestGoldenBaselineSnapshotRestores(t *testing.T) {
	restored := restoreGolden(t, goldenBaselineCfg, "tman_8x4_r7.psysnap", 7)

	fresh := MustNew(goldenBaselineCfg)
	defer fresh.Close()
	DrivePhases(fresh, goldenBaselinePhases, 12)
	want := snapshotBytes(t, fresh)
	for i, sc := range restored {
		if len(sc.fixedPos) == 0 {
			t.Fatalf("golden baseline snapshot v%d restored no pinned positions", i+1)
		}
		DrivePhases(sc, goldenBaselinePhases, 12)
		if !bytes.Equal(snapshotBytes(t, sc), want) {
			t.Fatalf("golden snapshot v%d + 5 rounds diverged from an uninterrupted run to round 12", i+1)
		}
	}
}

// TestShardedSnapshotDigest pins the refusal of snapshots taken under the
// removed sharded topology: the checked-in 2-shard snapshot fails with an
// error naming the shard count, and the target scenario is left as it was.
func TestShardedSnapshotDigest(t *testing.T) {
	golden := readGolden(t, "sharded2_8x4_r6.psysnap")

	target := MustNew(goldenCfg)
	defer target.Close()
	target.Run(3)
	before := snapshotBytes(t, target)

	err := target.Restore(bytes.NewReader(golden))
	if err == nil {
		t.Fatal("2-shard snapshot restored into the single engine")
	}
	if msg := err.Error(); !strings.Contains(msg, "2 shards") || !strings.Contains(msg, "removed") {
		t.Fatalf("refusal does not diagnose the removed sharded topology: %v", err)
	}
	if !bytes.Equal(snapshotBytes(t, target), before) {
		t.Fatal("refused restore mutated the target scenario")
	}
}

// TestRemovedBackupAblationSnapshotsRefused pins the refusal of snapshots
// taken under the removed backup ablations: the checked-in neighbour
// placement and full-copy snapshots fail the configuration check, and the
// target scenario is left as it was.
func TestRemovedBackupAblationSnapshotsRefused(t *testing.T) {
	for _, name := range []string{"neighbors_8x4_r6.psysnap", "fullcopy_8x4_r6.psysnap"} {
		golden := readGolden(t, name)
		target := MustNew(goldenCfg)
		t.Cleanup(target.Close)
		target.Run(3)
		before := snapshotBytes(t, target)

		err := target.Restore(bytes.NewReader(golden))
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("%s: restore error = %v, want a configuration mismatch", name, err)
		}
		if !bytes.Equal(snapshotBytes(t, target), before) {
			t.Fatalf("%s: refused restore mutated the target scenario", name)
		}
	}
}
