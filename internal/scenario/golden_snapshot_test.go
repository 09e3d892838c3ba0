package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenCfg is the configuration both checked-in snapshots were taken
// from, at round 6: testdata/single_8x4_r6.psysnap on the single engine,
// testdata/sharded2_8x4_r6.psysnap under the since-removed 2-shard
// topology. The files are never regenerated: they pin that snapshots
// written by earlier builds keep restoring (or fail with a diagnosis).
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

// TestGoldenSnapshotRestores pins format compatibility: the checked-in
// single-engine snapshot restores, re-snapshots to the identical bytes,
// and six more rounds from it equal an uninterrupted 12-round run.
func TestGoldenSnapshotRestores(t *testing.T) {
	golden := readGolden(t, "single_8x4_r6.psysnap")

	restored := MustNew(goldenCfg)
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatalf("golden snapshot refused: %v", err)
	}
	if got := restored.Engine.Round(); got != 6 {
		t.Fatalf("restored round = %d, want 6", got)
	}
	if !bytes.Equal(snapshotBytes(t, restored), golden) {
		t.Fatal("re-snapshot of the golden snapshot is not byte-identical to the file")
	}

	fresh := MustNew(goldenCfg)
	defer fresh.Close()
	fresh.Run(12)
	restored.Run(6)
	if !bytes.Equal(snapshotBytes(t, restored), snapshotBytes(t, fresh)) {
		t.Fatal("golden snapshot + 6 rounds diverged from an uninterrupted 12-round run")
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
// the baseline: the checked-in snapshot restores with its pinned
// positions, re-snapshots to the identical bytes, and five more rounds
// from it equal an uninterrupted run to round 12.
func TestGoldenBaselineSnapshotRestores(t *testing.T) {
	golden := readGolden(t, "tman_8x4_r7.psysnap")

	restored := MustNew(goldenBaselineCfg)
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatalf("golden snapshot refused: %v", err)
	}
	if got := restored.Engine.Round(); got != 7 {
		t.Fatalf("restored round = %d, want 7", got)
	}
	if len(restored.fixedPos) == 0 {
		t.Fatal("golden baseline snapshot restored no pinned positions")
	}
	if !bytes.Equal(snapshotBytes(t, restored), golden) {
		t.Fatal("re-snapshot of the golden snapshot is not byte-identical to the file")
	}

	fresh := MustNew(goldenBaselineCfg)
	defer fresh.Close()
	DrivePhases(fresh, goldenBaselinePhases, 12)
	DrivePhases(restored, goldenBaselinePhases, 12)
	if !bytes.Equal(snapshotBytes(t, restored), snapshotBytes(t, fresh)) {
		t.Fatal("golden snapshot + 5 rounds diverged from an uninterrupted run to round 12")
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
