package polystyrene

import (
	"bytes"
	"os"
	"testing"
)

// goldenSystemConfig is the configuration the checked-in facade snapshots
// were taken from: testdata/system_poly_8x4_r8.psysnap under Polystyrene
// and testdata/system_baseline_8x4_r8.psysnap under the plain T-Man
// baseline, both at round 8 of goldenSystemScript. The files are never
// regenerated: they pin that facade snapshots written by earlier builds
// keep restoring byte-for-byte.
func goldenSystemConfig(baseline bool) SystemConfig {
	return SystemConfig{
		Seed:              9,
		Space:             Torus(8, 4),
		Shape:             TorusShape(8, 4, 1),
		ReplicationFactor: 3,
		DetectionDelay:    1,
		Baseline:          baseline,
	}
}

// goldenSystemScript drives a fresh golden system to round 8: converge,
// crash the right half, heal, then add four late joiners (so the
// snapshot's pinned-position section is non-empty) and run on.
func goldenSystemScript(t *testing.T, sys *System) {
	t.Helper()
	sys.Run(4)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 4 })
	sys.Run(2)
	if _, err := sys.AddNodes([][]float64{{4.5, 0.5}, {5.5, 1.5}, {6.5, 2.5}, {7.5, 3.5}}); err != nil {
		t.Fatal(err)
	}
	sys.Run(2)
}

func systemSnapshotBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSystemSnapshotRestores pins the facade's snapshot format in
// both modes: each checked-in snapshot restores, re-snapshots to the
// identical bytes, and five more rounds from it equal an uninterrupted
// run of the same script.
func TestGoldenSystemSnapshotRestores(t *testing.T) {
	for _, tc := range []struct {
		file     string
		baseline bool
	}{
		{"system_poly_8x4_r8.psysnap", false},
		{"system_baseline_8x4_r8.psysnap", true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden, err := os.ReadFile("testdata/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenSystemConfig(tc.baseline)

			restored, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if err := restored.Restore(bytes.NewReader(golden)); err != nil {
				t.Fatalf("golden snapshot refused: %v", err)
			}
			if got := restored.Round(); got != 8 {
				t.Fatalf("restored round = %d, want 8", got)
			}
			if !bytes.Equal(systemSnapshotBytes(t, restored), golden) {
				t.Fatal("re-snapshot of the golden snapshot is not byte-identical to the file")
			}

			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			goldenSystemScript(t, fresh)
			fresh.Run(5)
			restored.Run(5)
			if !bytes.Equal(systemSnapshotBytes(t, restored), systemSnapshotBytes(t, fresh)) {
				t.Fatal("golden snapshot + 5 rounds diverged from an uninterrupted run")
			}
		})
	}
}
